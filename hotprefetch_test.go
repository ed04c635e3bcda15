package hotprefetch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// syntheticTrace builds a trace in which `streams` known sequences repeat,
// separated by noise references.
func syntheticTrace(streams [][]Ref, reps int, seed int64) []Ref {
	r := rand.New(rand.NewSource(seed))
	var trace []Ref
	for i := 0; i < reps; i++ {
		for _, s := range streams {
			trace = append(trace, s...)
			trace = append(trace, Ref{PC: 9999, Addr: uint64(r.Intn(1 << 20))})
		}
	}
	return trace
}

func mkStream(pcBase int, n int) []Ref {
	s := make([]Ref, n)
	for i := range s {
		s[i] = Ref{PC: pcBase + i, Addr: uint64((pcBase+i)*64 + 8)}
	}
	return s
}

func TestProfileFindsKnownStreams(t *testing.T) {
	known := [][]Ref{mkStream(100, 15), mkStream(200, 12)}
	p := NewProfile()
	p.AddBatch(syntheticTrace(known, 20, 1))

	cfg := AnalysisConfig{MinLen: 10, MaxLen: 100, MinUnique: 10, MinCoverage: 0.01}
	streams := p.HotStreams(cfg)
	if len(streams) < 2 {
		t.Fatalf("found %d hot streams, want >= 2", len(streams))
	}
	// Each known stream must be contained in some reported stream.
	for _, k := range known {
		if !coveredBy(k, streams) {
			t.Errorf("known stream starting at pc %d not detected", k[0].PC)
		}
	}
	// Streams are hottest-first.
	for i := 1; i < len(streams); i++ {
		if streams[i].Heat > streams[i-1].Heat {
			t.Error("streams must be sorted by heat")
		}
	}
}

func coveredBy(needle []Ref, streams []Stream) bool {
	for _, s := range streams {
		for i := 0; i+len(needle) <= len(s.Refs); i++ {
			match := true
			for j := range needle {
				if s.Refs[i+j] != needle[j] {
					match = false
					break
				}
			}
			if match {
				return true
			}
		}
	}
	return false
}

func TestProfileLenAndGrammarSize(t *testing.T) {
	p := NewProfile()
	if p.Len() != 0 {
		t.Error("empty profile must have Len 0")
	}
	p.AddBatch(mkStream(1, 50))
	if p.Len() != 50 {
		t.Errorf("Len = %d, want 50", p.Len())
	}
	if p.GrammarSize() == 0 {
		t.Error("grammar must not be empty")
	}
}

func TestPreciseAtLeastAsInclusive(t *testing.T) {
	known := [][]Ref{mkStream(100, 12)}
	p := NewProfile()
	p.AddBatch(syntheticTrace(known, 15, 2))
	cfg := AnalysisConfig{MinLen: 10, MaxLen: 60, MinUnique: 10, MinCoverage: 0.01}
	fast := p.HotStreams(cfg)
	precise := p.HotStreamsPrecise(cfg)
	if len(precise) == 0 {
		t.Fatal("precise analysis found nothing")
	}
	for _, f := range fast {
		if !coveredBy(f.Refs, precise) {
			t.Errorf("fast stream (heat %d) missing from precise results", f.Heat)
		}
	}
}

func TestMatcherEndToEnd(t *testing.T) {
	// Profile a trace, build a matcher, and re-run the trace through it:
	// the matcher must fire prefetches and the prefetched addresses must be
	// future stream addresses.
	known := [][]Ref{mkStream(100, 15)}
	trace := syntheticTrace(known, 20, 3)
	p := NewProfile()
	p.AddBatch(trace)
	streams := p.HotStreams(AnalysisConfig{MinLen: 10, MaxLen: 100, MinCoverage: 0.01})
	if len(streams) == 0 {
		t.Fatal("no streams detected")
	}
	m, err := NewMatcher(streams, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() < 2 || m.NumTransitions() < 1 {
		t.Fatalf("degenerate DFSM: %d states, %d transitions", m.NumStates(), m.NumTransitions())
	}

	pcs := map[int]bool{}
	for _, pc := range m.PCs() {
		pcs[pc] = true
	}
	streamAddrs := map[uint64]bool{}
	for _, s := range streams {
		for _, r := range s.Refs {
			streamAddrs[r.Addr] = true
		}
	}

	fired := 0
	for _, r := range trace {
		if !pcs[r.PC] {
			continue // detection code only exists at head pcs
		}
		pf, comps := m.Observe(r)
		if comps < 1 {
			t.Fatal("each observation costs at least one comparison")
		}
		if pf != nil {
			fired++
			for _, a := range pf {
				if !streamAddrs[a] {
					t.Fatalf("prefetched address 0x%x is not a stream address", a)
				}
			}
		}
	}
	if fired < 10 {
		t.Errorf("matcher fired %d times over 20 repetitions, want >= 10", fired)
	}
}

func TestMatcherRejectsBadHeadLen(t *testing.T) {
	if _, err := NewMatcher(nil, 0); err == nil {
		t.Error("headLen 0 must be rejected")
	}
}

func TestStreamCoverage(t *testing.T) {
	s := Stream{Heat: 80}
	if got := s.Coverage(100); got != 0.8 {
		t.Errorf("Coverage = %v, want 0.8", got)
	}
	if s.Coverage(0) != 0 {
		t.Error("Coverage of empty trace must be 0")
	}
}

func TestDefaultAnalysisConfigMatchesPaper(t *testing.T) {
	c := DefaultAnalysisConfig()
	if c.MinUnique != 10 || c.MinCoverage != 0.01 {
		t.Errorf("default config %+v deviates from the paper's §4.1 settings", c)
	}
}

// TestNegativeConfigClamped regresses the silent uint64 wrap: a negative
// MinLen/MaxLen used to convert to a huge unsigned bound, inverting the
// length filter's meaning.
func TestNegativeConfigClamped(t *testing.T) {
	c := AnalysisConfig{MinLen: -5, MaxLen: -1, MinUnique: -2, MinCoverage: -0.5, MaxStreams: -3}
	ic := c.internal()
	if ic.MinLen != 0 || ic.MaxLen != 0 {
		t.Errorf("negative length bounds wrapped to MinLen=%d MaxLen=%d, want 0/0", ic.MinLen, ic.MaxLen)
	}
	if ic.MinUnique != 0 || ic.MinCoverage != 0 || ic.MaxStreams != 0 {
		t.Errorf("negative filters not clamped: %+v", ic)
	}

	// A profile analyzed with a negative-bound config must return nothing
	// (clamped MaxLen 0 admits no stream) rather than everything.
	p := NewProfile()
	for rep := 0; rep < 50; rep++ {
		for i := 0; i < 12; i++ {
			p.Add(Ref{PC: i, Addr: uint64(8 * i)})
		}
	}
	if got := p.HotStreams(c); len(got) != 0 {
		t.Errorf("negative config returned %d streams, want 0", len(got))
	}
}

func TestAnalysisConfigValidate(t *testing.T) {
	if err := DefaultAnalysisConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []AnalysisConfig{
		{MinLen: -1},
		{MaxLen: -1},
		{MinLen: 10, MaxLen: 5},
		{MinUnique: -1},
		{MinCoverage: -0.1},
		{MinCoverage: 1.5},
		{MaxStreams: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d (%+v) validated, want error", i, c)
		}
	}
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	want := []string{"vpr", "mcf", "twolf", "parser", "vortex", "boxsim"}
	if len(names) != len(want) {
		t.Fatalf("Benchmarks() = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Benchmarks()[%d] = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestRunBenchmarkUnknown(t *testing.T) {
	if _, err := RunBenchmark("nope", ModeDynPref); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestRunBenchmarkDynPref(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated benchmark run")
	}
	rep, err := RunBenchmark("vortex", ModeDynPref)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OverheadPct >= 0 {
		t.Errorf("dyn-pref on vortex should win, got %+.1f%%", rep.OverheadPct)
	}
	if rep.OptCycles == 0 || rep.HotStreamsPerCycle == 0 || rep.UsefulPrefetches == 0 {
		t.Errorf("report looks empty: %+v", rep)
	}
	if rep.Mode.String() != "dyn-pref" {
		t.Errorf("mode name = %q", rep.Mode.String())
	}
}

// Property: profiling is online — interleaving Add calls with HotStreams
// snapshots never corrupts the profile (the final analysis matches a
// profile built in one shot).
func TestPropertyOnlineProfileStable(t *testing.T) {
	f := func(seed int64, cut uint8) bool {
		known := [][]Ref{mkStream(10, 12)}
		trace := syntheticTrace(known, 12, seed)
		cfg := AnalysisConfig{MinLen: 10, MaxLen: 60, MinCoverage: 0.01}

		oneShot := NewProfile()
		oneShot.AddBatch(trace)
		want := oneShot.HotStreams(cfg)

		interleaved := NewProfile()
		c := int(cut) % len(trace)
		interleaved.AddBatch(trace[:c])
		_ = interleaved.HotStreams(cfg) // mid-flight snapshot
		interleaved.AddBatch(trace[c:])
		got := interleaved.HotStreams(cfg)

		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Heat != want[i].Heat || len(got[i].Refs) != len(want[i].Refs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
