package dfsm

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hotprefetch/internal/ref"
)

// stateOf returns m's current state in d, the machine m was built from.
func stateOf(d *DFSM, m *Matcher) *State { return d.States[m.cur] }

// refOf maps a letter to a distinct data reference, mirroring the paper's
// examples where each symbol is one (pc, addr) pair.
func refOf(c byte) ref.Ref {
	return ref.Ref{PC: int(c), Addr: uint64(c) * 8}
}

func refsOf(s string) []ref.Ref {
	rs := make([]ref.Ref, len(s))
	for i := 0; i < len(s); i++ {
		rs[i] = refOf(s[i])
	}
	return rs
}

// TestPaperFigure7SingleStream drives the worked example of §3.1: hot data
// stream v = abacadae with headLen = 3. Detecting "aba" must trigger
// prefetches of c.addr, a.addr, d.addr, e.addr (the tail, deduplicated).
func TestPaperFigure7SingleStream(t *testing.T) {
	v := Split(refsOf("abacadae"), 100, 3)
	if len(v.Head) != 3 || len(v.Tail) != 4 {
		t.Fatalf("head/tail = %d/%d, want 3/4", len(v.Head), len(v.Tail))
	}
	want := []uint64{refOf('c').Addr, refOf('a').Addr, refOf('d').Addr, refOf('e').Addr}
	for i, a := range want {
		if v.Tail[i] != a {
			t.Fatalf("tail[%d] = %d, want %d", i, v.Tail[i], a)
		}
	}

	d := Build([]Stream{v}, 3)
	m := NewMatcher(d)
	var fired []uint64
	for _, r := range refsOf("aba") {
		pf, comp := m.Observe(r)
		if comp < 1 {
			t.Error("each step must cost at least one comparison")
		}
		fired = append(fired, pf...)
	}
	if len(fired) != 4 {
		t.Fatalf("prefetches = %v, want 4 addresses after matching aba", fired)
	}
	for i, a := range want {
		if fired[i] != a {
			t.Errorf("prefetch[%d] = %d, want %d", i, fired[i], a)
		}
	}
}

// TestPaperFigure8DFSM verifies the combined DFSM for v = abacadae and
// w = bbghij with headLen = 3 (paper Figure 8): the reachable states are
// {}, {[v,1]}, {[w,1]}, {[v,2],[w,1]}, {[w,1],[w,2]}, {[v,1],[v,3]}, {[w,3]}.
func TestPaperFigure8DFSM(t *testing.T) {
	v := Split(refsOf("abacadae"), 100, 3)
	w := Split(refsOf("bbghij"), 90, 3)
	d := Build([]Stream{v, w}, 3)

	if d.NumStates() != 7 {
		t.Fatalf("states = %d, want 7:\n%s", d.NumStates(), d)
	}

	// Walk the machine through v's head and check element sets.
	m := NewMatcher(d)
	m.Observe(refOf('a'))
	assertElements(t, stateOf(d, m), []Element{{0, 1}})
	m.Observe(refOf('b'))
	assertElements(t, stateOf(d, m), []Element{{0, 2}, {1, 1}})
	pf, _ := m.Observe(refOf('a'))
	assertElements(t, stateOf(d, m), []Element{{0, 1}, {0, 3}})
	if len(pf) != 4 {
		t.Errorf("completing v.head must prefetch its 4 tail addresses, got %v", pf)
	}

	// From {[v,1],[v,3]}, b leads back to {[v,2],[w,1]}.
	m.Observe(refOf('b'))
	assertElements(t, stateOf(d, m), []Element{{0, 2}, {1, 1}})

	// Walk w's head: b b g.
	m.Reset()
	m.Observe(refOf('b'))
	assertElements(t, stateOf(d, m), []Element{{1, 1}})
	m.Observe(refOf('b'))
	assertElements(t, stateOf(d, m), []Element{{1, 1}, {1, 2}})
	pf, _ = m.Observe(refOf('g'))
	assertElements(t, stateOf(d, m), []Element{{1, 3}})
	if len(pf) != 3 {
		t.Errorf("completing w.head must prefetch h,i,j, got %v", pf)
	}

	// An unrelated reference resets to the start state.
	m.Observe(refOf('z'))
	if stateOf(d, m).ID != 0 {
		t.Error("unmatched reference must reset to the start state")
	}
}

func assertElements(t *testing.T, s *State, want []Element) {
	t.Helper()
	if len(s.Elements) != len(want) {
		t.Fatalf("state %d elements = %v, want %v", s.ID, s.Elements, want)
	}
	for i := range want {
		if s.Elements[i] != want[i] {
			t.Fatalf("state %d elements = %v, want %v", s.ID, s.Elements, want)
		}
	}
}

func TestStreamsTooShortAreDropped(t *testing.T) {
	short := Split(refsOf("ab"), 10, 3)   // shorter than headLen
	exact := Split(refsOf("abc"), 10, 3)  // no tail
	good := Split(refsOf("abcde"), 10, 3) // usable
	d := Build([]Stream{short, exact, good}, 3)
	if len(d.Streams) != 1 {
		t.Errorf("usable streams = %d, want 1", len(d.Streams))
	}
}

func TestStateCountNearLinear(t *testing.T) {
	// n streams with disjoint alphabets: the paper observes close to
	// headLen*n+1 states rather than the exponential worst case.
	var streams []Stream
	n, headLen := 10, 3
	for i := 0; i < n; i++ {
		rs := make([]ref.Ref, 15)
		for j := range rs {
			rs[j] = ref.Ref{PC: 1000*i + j, Addr: uint64(1000*i + j)}
		}
		streams = append(streams, Split(rs, 10, headLen))
	}
	d := Build(streams, headLen)
	want := headLen*n + 1
	if d.NumStates() != want {
		t.Errorf("states = %d, want %d for disjoint streams", d.NumStates(), want)
	}
	if d.NumTransitions() < n*headLen {
		t.Errorf("transitions = %d, want >= %d", d.NumTransitions(), n*headLen)
	}
}

func TestPCsCoversHeads(t *testing.T) {
	v := Split(refsOf("abcxyz"), 10, 3)
	w := Split(refsOf("defxyz"), 10, 3)
	d := Build([]Stream{v, w}, 3)
	pcs := d.PCs()
	want := map[int]bool{'a': true, 'b': true, 'c': true, 'd': true, 'e': true, 'f': true}
	if len(pcs) != len(want) {
		t.Fatalf("PCs = %v, want the 6 head pcs", pcs)
	}
	for _, pc := range pcs {
		if !want[pc] {
			t.Errorf("unexpected pc %d", pc)
		}
	}
	for i := 1; i < len(pcs); i++ {
		if pcs[i] <= pcs[i-1] {
			t.Error("PCs must be sorted")
		}
	}
}

// TestMatcherKeepsMachineShape: the matcher copies its counts and pcs from
// the machine at construction instead of holding it, so they must equal
// the machine's for dense and sparse pc layouts and the empty pass-through
// machine alike, and a sparse-pc matcher steps on its own index.
func TestMatcherKeepsMachineShape(t *testing.T) {
	sparse := []ref.Ref{{PC: 1, Addr: 8}, {PC: 1 << 30, Addr: 16}, {PC: 5, Addr: 24}}
	for name, streams := range map[string][]Stream{
		"dense":  {Split(refsOf("abacadae"), 100, 2), Split(refsOf("bbghij"), 90, 2)},
		"sparse": {Split(sparse, 10, 2)},
		"empty":  nil,
	} {
		d := Build(streams, 2)
		m := NewMatcher(d)
		if m.NumStates() != d.NumStates() || m.NumTransitions() != d.NumTransitions() {
			t.Errorf("%s: matcher reports %d states, %d transitions; machine has %d, %d",
				name, m.NumStates(), m.NumTransitions(), d.NumStates(), d.NumTransitions())
		}
		if got, want := m.PCs(), d.PCs(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: matcher PCs %v, machine PCs %v", name, got, want)
		}
	}
	m := NewMatcher(Build([]Stream{Split(sparse, 10, 2)}, 2))
	m.Observe(sparse[0])
	if pf, _ := m.Observe(sparse[1]); len(pf) != 1 || pf[0] != 24 {
		t.Fatalf("sparse-pc head completion prefetched %v, want [24]", pf)
	}
}

func TestSamePCDifferentAddr(t *testing.T) {
	// Two streams whose heads share a pc but differ in address (the common
	// case: one load instruction walking different objects).
	v := []ref.Ref{{PC: 1, Addr: 100}, {PC: 2, Addr: 200}, {PC: 1, Addr: 300}, {PC: 3, Addr: 400}}
	w := []ref.Ref{{PC: 1, Addr: 500}, {PC: 2, Addr: 600}, {PC: 1, Addr: 700}, {PC: 3, Addr: 800}}
	d := Build([]Stream{Split(v, 10, 2), Split(w, 9, 2)}, 2)

	m := NewMatcher(d)
	m.Observe(ref.Ref{PC: 1, Addr: 100})
	m.Observe(ref.Ref{PC: 2, Addr: 200})
	if len(stateOf(d, m).Prefetches) == 0 {
		t.Error("v's head should have completed")
	}
	m.Reset()
	m.Observe(ref.Ref{PC: 1, Addr: 500})
	pf, _ := m.Observe(ref.Ref{PC: 2, Addr: 600})
	if len(pf) != 2 || pf[0] != 700 {
		t.Errorf("w's completion should prefetch 700,800; got %v", pf)
	}
	// Same pc, unknown address: reset.
	m.Observe(ref.Ref{PC: 1, Addr: 999})
	if stateOf(d, m).ID != 0 {
		t.Error("unknown address at a known pc must reset")
	}
}

// referenceMatcher is a direct implementation of the transition function
// d(s,a) from §3.1, used as the specification for the lazily-built DFSM.
type referenceMatcher struct {
	streams []Stream
	headLen int
	cur     map[Element]bool
}

func (rm *referenceMatcher) step(a ref.Ref) (fired bool) {
	next := map[Element]bool{}
	for e := range rm.cur {
		if e.Seen < rm.headLen && rm.streams[e.Stream].Head[e.Seen] == a {
			next[Element{e.Stream, e.Seen + 1}] = true
		}
	}
	for wi, w := range rm.streams {
		if w.Head[0] == a {
			next[Element{wi, 1}] = true
		}
	}
	changed := len(next) != len(rm.cur)
	if !changed {
		for e := range next {
			if !rm.cur[e] {
				changed = true
				break
			}
		}
	}
	complete := false
	for e := range next {
		if e.Seen == rm.headLen {
			complete = true
		}
	}
	rm.cur = next
	return changed && complete
}

// Property: the lazily-constructed DFSM behaves exactly like the subset
// construction applied directly to the definition — same element sets, same
// prefetch firing — on random traces drawn from the streams' alphabet.
func TestPropertyDFSMMatchesSubsetConstruction(t *testing.T) {
	f := func(seed int64, headLen8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		headLen := int(headLen8%3) + 1

		// Random streams over a small shared alphabet to force overlap.
		alphabet := make([]ref.Ref, 6)
		for i := range alphabet {
			alphabet[i] = ref.Ref{PC: i % 3, Addr: uint64(i) * 16} // shared pcs
		}
		nStreams := r.Intn(4) + 1
		streams := make([]Stream, 0, nStreams)
		for i := 0; i < nStreams; i++ {
			length := headLen + 1 + r.Intn(5)
			rs := make([]ref.Ref, length)
			for j := range rs {
				rs[j] = alphabet[r.Intn(len(alphabet))]
			}
			streams = append(streams, Split(rs, uint64(10+i), headLen))
		}

		d := Build(streams, headLen)
		m := NewMatcher(d)
		rm := &referenceMatcher{streams: d.Streams, headLen: headLen, cur: map[Element]bool{}}

		for step := 0; step < 200; step++ {
			a := alphabet[r.Intn(len(alphabet))]
			pf, _ := m.Observe(a)
			wantFired := rm.step(a)
			if (len(pf) > 0) != wantFired {
				return false
			}
			// Element sets must agree.
			if len(stateOf(d, m).Elements) != len(rm.cur) {
				return false
			}
			for _, e := range stateOf(d, m).Elements {
				if !rm.cur[e] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a prefetch fires exactly when the last headLen observed
// references equal some stream's head and the machine state changed
// (re-entering the same state does not re-issue).
func TestPropertyFireMatchesWindow(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const headLen = 3
		alphabet := refsOf("abcdef")
		var streams []Stream
		for i := 0; i < 3; i++ {
			rs := make([]ref.Ref, headLen+2+r.Intn(4))
			for j := range rs {
				rs[j] = alphabet[r.Intn(len(alphabet))]
			}
			streams = append(streams, Split(rs, uint64(5+i), headLen))
		}
		d := Build(streams, headLen)
		m := NewMatcher(d)

		var window []ref.Ref
		prevID := stateOf(d, m).ID
		for step := 0; step < 300; step++ {
			a := alphabet[r.Intn(len(alphabet))]
			window = append(window, a)
			if len(window) > headLen {
				window = window[1:]
			}
			pf, _ := m.Observe(a)
			windowMatches := false
			if len(window) == headLen {
				for _, s := range d.Streams {
					match := true
					for j := range s.Head {
						if s.Head[j] != window[j] {
							match = false
							break
						}
					}
					if match {
						windowMatches = true
						break
					}
				}
			}
			stateChanged := stateOf(d, m).ID != prevID
			prevID = stateOf(d, m).ID
			if (len(pf) > 0) != (windowMatches && stateChanged) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSplitDeduplicatesTail(t *testing.T) {
	// abacadae: tail after head aba is c,a,d,a,e with 'a' repeated.
	s := Split(refsOf("abacadae"), 1, 3)
	seen := map[uint64]bool{}
	for _, a := range s.Tail {
		if seen[a] {
			t.Errorf("tail address %d duplicated", a)
		}
		seen[a] = true
	}
}

func TestBuildPanicsOnBadHeadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for headLen < 1")
		}
	}()
	Build(nil, 0)
}

func BenchmarkBuild50Streams(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	var streams []Stream
	for i := 0; i < 50; i++ {
		rs := make([]ref.Ref, 15+r.Intn(10))
		for j := range rs {
			rs[j] = ref.Ref{PC: r.Intn(40), Addr: uint64(r.Intn(4096)) * 8}
		}
		streams = append(streams, Split(rs, uint64(r.Intn(1000)), 2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(streams, 2)
	}
}

func BenchmarkMatcherStep(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	var streams []Stream
	for i := 0; i < 20; i++ {
		rs := make([]ref.Ref, 18)
		for j := range rs {
			rs[j] = ref.Ref{PC: r.Intn(10), Addr: uint64(r.Intn(256)) * 8}
		}
		streams = append(streams, Split(rs, uint64(i), 2))
	}
	d := Build(streams, 2)
	m := NewMatcher(d)
	trace := make([]ref.Ref, 4096)
	for i := range trace {
		trace[i] = ref.Ref{PC: r.Intn(10), Addr: uint64(r.Intn(256)) * 8}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(trace[i%len(trace)])
	}
}

func TestWriteDOT(t *testing.T) {
	v := Split(refsOf("abacadae"), 100, 3)
	w := Split(refsOf("bbghij"), 90, 3)
	d := Build([]Stream{v, w}, 3)
	var buf strings.Builder
	if err := d.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph dfsm", "doublecircle", "s0 ->", "[v0,3]", "pc97:"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Deterministic output.
	var buf2 strings.Builder
	if err := d.WriteDOT(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Error("DOT output must be deterministic")
	}
}
