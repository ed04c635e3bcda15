package hotprefetch

import (
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hotprefetch/internal/workload"
)

// rawShard builds a single shard whose consumer is NOT running, so the
// producer-side policy state machine can be exercised deterministically
// against a ring that never drains.
func rawShard(t *testing.T, cfg ShardedConfig) *ProfileShard {
	t.Helper()
	cfg.Shards = 1
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return newShardedProfile(cfg).shards[0]
}

func TestAddAfterCloseReturnsError(t *testing.T) {
	for _, policy := range []IngestPolicy{Block, Drop, Sample} {
		t.Run(policy.String(), func(t *testing.T) {
			sp, err := NewShardedProfileConfig(ShardedConfig{Shards: 2, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			if err := sp.Shard(0).Add(Ref{PC: 1, Addr: 2}); err != nil {
				t.Fatalf("Add before Close: %v", err)
			}
			sp.Close()
			if err := sp.Shard(0).Add(Ref{PC: 1, Addr: 2}); !errors.Is(err, ErrClosed) {
				t.Fatalf("Add after Close = %v, want ErrClosed", err)
			}
			if err := sp.Shard(1).AddAll([]Ref{{PC: 1, Addr: 2}}); !errors.Is(err, ErrClosed) {
				t.Fatalf("AddAll after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestAddRacingClose hammers Add from per-shard producers while Close lands:
// no Add may spin forever, and every accepted reference must be accounted
// for. Run under -race this also validates the close/consume edges.
func TestAddRacingClose(t *testing.T) {
	for _, policy := range []IngestPolicy{Block, Drop, Sample} {
		t.Run(policy.String(), func(t *testing.T) {
			sp, err := NewShardedProfileConfig(ShardedConfig{Shards: 2, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < sp.NumShards(); i++ {
				wg.Add(1)
				go func(s *ProfileShard) {
					defer wg.Done()
					r := Ref{PC: 7, Addr: 7}
					for {
						if err := s.Add(r); errors.Is(err, ErrClosed) {
							return
						}
					}
				}(sp.Shard(i))
			}
			time.Sleep(5 * time.Millisecond)
			sp.Close() // must unblock all producers
			wg.Wait()
			st := sp.Stats()
			// Close drains; anything accepted before the close cut must have
			// been consumed. (A push that raced the final drain may remain
			// in-flight, so allow consumed <= pushed but require near-total
			// drainage only when they match — the invariant that must always
			// hold is consumed never exceeds pushed.)
			if st.Consumed > st.Pushed {
				t.Fatalf("consumed %d > pushed %d", st.Consumed, st.Pushed)
			}
		})
	}
}

// TestShardAddAllocatesNothing: Add is AddBatch over a one-element array on
// its own stack, so it allocates nothing under any policy, with the burst
// front end off or on.
func TestShardAddAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's bookkeeping")
	}
	for _, policy := range []IngestPolicy{Block, Drop, Sample} {
		for _, bc := range []BurstConfig{{}, burstTestConfig()} {
			s := rawShard(t, ShardedConfig{Policy: policy, Burst: bc})
			r := Ref{PC: 1, Addr: 64}
			// 1001 runs leave the ring short of full, so Block never waits.
			if a := testing.AllocsPerRun(1000, func() { s.Add(r) }); a != 0 {
				t.Errorf("%v, burst %v: Add allocates %.1f times per call, want 0", policy, bc.Enabled, a)
			}
		}
	}
}

func TestDropPolicyDeterministicAccounting(t *testing.T) {
	s := rawShard(t, ShardedConfig{Policy: Drop})
	const attempts = ringCap + 1000
	for i := 0; i < attempts; i++ {
		if err := s.Add(Ref{PC: i, Addr: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	pushed, dropped := s.pushed.Load(), s.dropped.Load()
	if pushed != ringCap {
		t.Errorf("pushed = %d, want %d (ring capacity, consumer never drains)", pushed, ringCap)
	}
	if pushed+dropped != attempts {
		t.Errorf("pushed %d + dropped %d != attempts %d", pushed, dropped, attempts)
	}
}

// TestDropPolicyStressAccounting checks drop counts stay exact while a live
// consumer races the producer: every attempt is either pushed or dropped,
// and after Close everything pushed has been consumed.
func TestDropPolicyStressAccounting(t *testing.T) {
	attempts := 200000
	if testing.Short() {
		attempts = 20000
	}
	sp, err := NewShardedProfileConfig(ShardedConfig{Shards: 1, Policy: Drop})
	if err != nil {
		t.Fatal(err)
	}
	s := sp.Shard(0)
	for i := 0; i < attempts; i++ {
		if err := s.Add(Ref{PC: i % 64, Addr: uint64(i % 256)}); err != nil {
			t.Fatal(err)
		}
	}
	sp.Close()
	pushed, dropped, consumed := s.pushed.Load(), s.dropped.Load(), s.consumed.Load()
	if pushed+dropped != uint64(attempts) {
		t.Errorf("pushed %d + dropped %d != attempts %d", pushed, dropped, attempts)
	}
	if consumed != pushed {
		t.Errorf("consumed %d != pushed %d after Close", consumed, pushed)
	}
	if got := flushedLen(t, sp); got != pushed {
		t.Errorf("consumed %d references after Flush, want %d", got, pushed)
	}
}

func TestSamplePolicyDegradation(t *testing.T) {
	const n = 4
	s := rawShard(t, ShardedConfig{Policy: Sample, SampleInterval: n})
	add := func() {
		t.Helper()
		if err := s.Add(Ref{PC: 1, Addr: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Ring fills at full acceptance.
	for i := 0; i < ringCap; i++ {
		add()
	}
	if got := s.pushed.Load(); got != ringCap {
		t.Fatalf("pushed = %d, want %d", got, ringCap)
	}
	// First rejection: dropped, and the shard degrades.
	add()
	if got := s.dropped.Load(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	if !s.degraded {
		t.Fatal("shard should be degraded after a full-ring rejection")
	}
	// Degraded: only every n-th reference is attempted; the rest are
	// sampled out without touching the ring.
	for i := 0; i < 2*n; i++ {
		add()
	}
	if got := s.sampledOut.Load(); got != 2*(n-1) {
		t.Errorf("sampled = %d, want %d", got, 2*(n-1))
	}
	if got := s.dropped.Load(); got != 3 {
		t.Errorf("dropped = %d, want 3 (initial + one per degraded attempt)", got)
	}
	if got := s.pushed.Load(); got != ringCap {
		t.Errorf("pushed = %d, want %d (ring still full)", got, ringCap)
	}
	// Drain below half capacity; the next attempted push succeeds and the
	// shard recovers to full acceptance.
	var buf [ringCap/2 + 1]Ref
	s.q.PopBatch(buf[:])
	for i := 0; i < n; i++ {
		add()
	}
	if s.degraded {
		t.Error("shard should have recovered after the backlog receded")
	}
	if got := s.pushed.Load(); got != ringCap+1 {
		t.Errorf("pushed = %d, want %d after recovery push", got, ringCap+1)
	}
}

// TestGrammarBudgetCycling is the bounded-memory acceptance run: a shard
// with MaxGrammarSymbols set must keep its peak grammar size at or under
// the budget across a 10M-reference synthetic trace while still detecting
// the planted hot stream across cycle resets.
func TestGrammarBudgetCycling(t *testing.T) {
	total := 10_000_000
	if testing.Short() {
		total = 500_000
	}
	const budget = 2048
	cycleCfg := AnalysisConfig{MinLen: 10, MaxLen: 100, MinUnique: 10, MinCoverage: 0.01, MaxStreams: 100}
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: budget,
		cycleAnalysis:     cycleCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := sp.Shard(0)

	// Planted hot stream: 12 fixed references, separated by unique noise so
	// the grammar keeps growing and must cycle.
	stream := make([]Ref, 12)
	for i := range stream {
		stream[i] = Ref{PC: 100 + i, Addr: uint64(0x1000 + 8*i)}
	}
	added := 0
	for noise := 0; added < total; noise++ {
		for _, r := range stream {
			s.Add(r)
		}
		s.Add(Ref{PC: 500000 + noise, Addr: uint64(noise)})
		added += len(stream) + 1
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}

	st := sp.Stats()
	if st.Resets == 0 {
		t.Fatalf("no grammar resets across %d references with budget %d", added, budget)
	}
	if peak := st.Shards[0].PeakGrammarSize; peak > budget {
		t.Errorf("peak grammar size %d exceeds budget %d", peak, budget)
	}
	if st.GrammarSize > budget {
		t.Errorf("live grammar size %d exceeds budget %d", st.GrammarSize, budget)
	}
	if st.Consumed != uint64(added) {
		t.Errorf("consumed %d, want %d", st.Consumed, added)
	}

	streams := hotStreams(t, sp, AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.001, MaxStreams: 100})
	found := false
	for _, hs := range streams {
		for _, r := range hs.Refs {
			if r == stream[0] {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("planted hot stream not detected across %d cycle resets", st.Resets)
	}
	sp.Close()
}

// TestGrammarResetRacesObservers cycles the grammar continuously while other
// goroutines snapshot Stats — run under -race this validates that cycling,
// counter reads, and retained-stream access are properly synchronized.
func TestGrammarResetRacesObservers(t *testing.T) {
	total := 300000
	if testing.Short() {
		total = 50000
	}
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 256,
		cycleAnalysis:     AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.05, MaxStreams: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = sp.Stats().String()
			}
		}
	}()
	s := sp.Shard(0)
	for i := 0; i < total; i++ {
		// Alternate a short repeating motif with unique noise so the
		// grammar both compresses and keeps growing toward the budget.
		if i%3 == 0 {
			s.Add(Ref{PC: i, Addr: uint64(i)})
		} else {
			s.Add(Ref{PC: i % 4, Addr: uint64(i % 8)})
		}
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if st := sp.Stats(); st.Resets == 0 {
		t.Error("expected at least one grammar reset")
	}
	sp.Close()
}

// TestFlushBoundedUnderActiveProducers regresses the Flush livelock: with
// producers continuously refilling the rings, Flush used to chase the
// pushed counter forever. Now it snapshots its target on entry and must
// return promptly.
func TestFlushBoundedUnderActiveProducers(t *testing.T) {
	sp, err := NewShardedProfileConfig(ShardedConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < sp.NumShards(); i++ {
		wg.Add(1)
		go func(s *ProfileShard) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
					s.Add(Ref{PC: j % 32, Addr: uint64(j % 64)})
				}
			}
		}(sp.Shard(i))
	}
	deadline := time.Now().Add(2 * time.Second)
	for i := 0; i < 20; i++ {
		if err := sp.Flush(); err != nil {
			t.Fatalf("Flush %d: %v", i, err)
		}
		if time.Now().After(deadline) {
			t.Fatal("Flush calls did not complete promptly under active producers")
		}
	}
	close(stop)
	wg.Wait()
	sp.Close()
}

// TestFlushStalledConsumer checks the bounded-wait error path: a shard whose
// drain lock is held by a consumer that makes no progress cannot drain, so
// Flush must give up with ErrFlushStalled once the clock passes
// flushStallTimeout, not before, instead of waiting forever.
func TestFlushStalledConsumer(t *testing.T) {
	sp := newShardedProfile(ShardedConfig{Shards: 1}) // consumers intentionally not started
	clk := newFakeClock()
	sp.clk = clk
	sp.Shard(0).Add(Ref{PC: 1, Addr: 1})
	holdDrain(t, sp.Shard(0))
	if err := verdictAt(t, clk, flushStallTimeout, sp.Flush); !errors.Is(err, ErrFlushStalled) {
		t.Fatalf("Flush = %v, want ErrFlushStalled", err)
	}
}

// holdDrain holds s's drain lock until the test ends, as a consumer stuck
// mid-drain would: Flush can neither drain the shard on its own goroutine
// nor see progress.
func holdDrain(t *testing.T, s *ProfileShard) {
	t.Helper()
	s.drain.Lock()
	t.Cleanup(s.drain.Unlock)
}

// TestFlushDrainsWithoutRunningConsumer checks that Flush compresses on its
// own goroutine while a shard's drain lock is free: with no consumer
// running, every accepted reference still reaches its grammar, and a
// grammar-budget cycle that falls due runs on the caller.
func TestFlushDrainsWithoutRunningConsumer(t *testing.T) {
	cfg := ShardedConfig{
		Shards:            2,
		MaxGrammarSymbols: 64,
		cycleAnalysis:     AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.1},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	sp := newShardedProfile(cfg) // consumers intentionally not started
	trace := shardTrace(1, 100)
	for i := 0; i < sp.NumShards(); i++ {
		if err := sp.Shard(i).AddAll(trace); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Flush(); err != nil {
		t.Fatalf("Flush with no running consumer = %v, want nil", err)
	}
	st := sp.Stats()
	want := uint64(sp.NumShards() * len(trace))
	if st.Pushed != want || st.Consumed != want {
		t.Errorf("pushed/consumed = %d/%d, want %d/%d", st.Pushed, st.Consumed, want, want)
	}
	if st.Resets == 0 {
		t.Error("no grammar-budget cycle ran during the caller's drain")
	}
	checkCycleInvariant(t, st)
	if len(sp.BankedStreams(0)) == 0 {
		t.Error("the caller's cycles banked no hot streams")
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	sp, err := NewShardedProfileConfig(ShardedConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	trace := shardTrace(1, 100)
	if err := sp.Shard(0).AddAll(trace); err != nil {
		t.Fatal(err)
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
	streams := hotStreams(t, sp, AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.1})
	if len(streams) == 0 {
		t.Fatal("no hot streams")
	}
	cm, err := NewConcurrentMatcher(streams, 2)
	if err != nil {
		t.Fatal(err)
	}
	sp.AttachMatcher(cm)
	for _, r := range trace[:100] {
		cm.Observe(r)
	}

	st := sp.Stats()
	if st.Pushed != uint64(len(trace)) || st.Consumed != uint64(len(trace)) {
		t.Errorf("pushed/consumed = %d/%d, want %d", st.Pushed, st.Consumed, len(trace))
	}
	if st.MatcherObservations != 100 {
		t.Errorf("matcher observations = %d, want 100", st.MatcherObservations)
	}
	if st.Shards[1].Pushed != 0 {
		t.Errorf("idle shard pushed = %d, want 0", st.Shards[1].Pushed)
	}

	// expvar compatibility: String() is the JSON encoding and it round-trips.
	var back Stats
	if err := json.Unmarshal([]byte(st.String()), &back); err != nil {
		t.Fatalf("Stats.String() is not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Errorf("Stats JSON round-trip diverged:\n got %+v\nwant %+v", back, st)
	}
}

func TestShardedConfigValidate(t *testing.T) {
	bad := []ShardedConfig{
		{Policy: IngestPolicy(42)},
		{SampleInterval: -1},
		{MaxGrammarSymbols: -1},
		{MaxGrammarSymbols: 4},
		{AnalysisWorkers: -1},
	}
	for i, cfg := range bad {
		if _, err := NewShardedProfileConfig(cfg); err == nil {
			t.Errorf("config %d (%+v) accepted, want error", i, cfg)
		}
	}
	sp, err := NewShardedProfileConfig(ShardedConfig{})
	if err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	sp.Close()
}

func TestParseIngestPolicy(t *testing.T) {
	for _, p := range []IngestPolicy{Block, Drop, Sample} {
		got, err := ParseIngestPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseIngestPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseIngestPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

// TestAddBatchMatchesAdd checks batched ingestion is observationally
// identical to per-reference ingestion: same consumed count, same hot
// streams.
func TestAddBatchMatchesAdd(t *testing.T) {
	trace := shardTrace(1, 300)
	cfg := AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.01, MaxStreams: 50}

	batched := NewShardedProfile(1)
	defer batched.Close()
	for i := 0; i < len(trace); i += 100 {
		end := i + 100
		if end > len(trace) {
			end = len(trace)
		}
		if err := batched.AddBatch(0, trace[i:end]); err != nil {
			t.Fatal(err)
		}
	}

	single := NewShardedProfile(1)
	defer single.Close()
	if err := single.Shard(0).AddAll(trace); err != nil {
		t.Fatal(err)
	}

	if got, want := flushedLen(t, batched), flushedLen(t, single); got != want {
		t.Fatalf("batched consumed %d references, per-ref %d", got, want)
	}
	got, want := hotStreams(t, batched, cfg), hotStreams(t, single, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("batched HotStreams diverge from per-ref:\n got %v\nwant %v", got, want)
	}
}

// TestAddBatchDropAccounting mirrors the Drop Add accounting test: every
// reference in a batch is either pushed or counted dropped, never silently
// lost.
func TestAddBatchDropAccounting(t *testing.T) {
	s := rawShard(t, ShardedConfig{Policy: Drop})
	const attempts = ringCap + 1000
	refs := make([]Ref, attempts)
	for i := range refs {
		refs[i] = Ref{PC: i, Addr: uint64(i)}
	}
	if err := s.AddBatch(refs); err != nil {
		t.Fatal(err)
	}
	pushed, dropped := s.pushed.Load(), s.dropped.Load()
	if pushed != ringCap {
		t.Errorf("pushed = %d, want %d (ring capacity, consumer never drains)", pushed, ringCap)
	}
	if pushed+dropped != attempts {
		t.Errorf("pushed %d + dropped %d != attempts %d", pushed, dropped, attempts)
	}
	if err := s.AddBatch(nil); err != nil {
		t.Errorf("AddBatch(nil) = %v, want nil", err)
	}
}

// TestAddBatchRacingClose races batch producers against Close: the producer
// must come to rest with ErrClosed (never spin forever against stopped
// consumers), and every reference it managed to push must be accounted.
// Run under -race this also validates the batch-push/close synchronization.
func TestAddBatchRacingClose(t *testing.T) {
	for _, policy := range []IngestPolicy{Block, Drop, Sample} {
		t.Run(policy.String(), func(t *testing.T) {
			sp, err := NewShardedProfileConfig(ShardedConfig{Shards: 1, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			s := sp.Shard(0)
			batch := make([]Ref, 48)
			for i := range batch {
				batch[i] = Ref{PC: i % 7, Addr: uint64(i % 5)}
			}
			errc := make(chan error, 1)
			started := make(chan struct{})
			go func() {
				close(started)
				for {
					if err := s.AddBatch(batch); err != nil {
						errc <- err
						return
					}
				}
			}()
			<-started
			sp.Close()
			if err := <-errc; !errors.Is(err, ErrClosed) {
				t.Fatalf("AddBatch after Close = %v, want ErrClosed", err)
			}
			// Refs pushed after the consumer's final drain stay in the ring;
			// consumed can never exceed pushed.
			if p, c := s.pushed.Load(), s.consumed.Load(); c > p {
				t.Errorf("consumed %d > pushed %d", c, p)
			}
		})
	}
}

// TestPipelinedMatchesInline is the differential acceptance check for
// pipelined phase transitions: the same trace pushed through an inline-cycling
// service and a background-pool service must yield the same hot-stream set —
// same words, same heats — and matchers built over the two sets must charge
// identical comparison counts. Cycle points are deterministic (the budget is
// checked per reference), so only merge order may differ; both sets are
// canonicalized before comparison.
func TestPipelinedMatchesInline(t *testing.T) {
	trace := shardTrace(3, 2000)
	cycleCfg := AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.01}
	run := func(workers int) []Stream {
		sp, err := NewShardedProfileConfig(ShardedConfig{
			Shards:            1,
			MaxGrammarSymbols: 256,
			cycleAnalysis:     cycleCfg,
			AnalysisWorkers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sp.Close()
		if err := sp.AddBatch(0, trace); err != nil {
			t.Fatal(err)
		}
		streams := hotStreams(t, sp, cycleCfg)
		if st := sp.Stats(); st.Resets == 0 {
			t.Fatalf("workers=%d: no grammar cycles ran; differential test needs cycling", workers)
		} else if workers > 0 && st.CyclesAnalyzed == 0 {
			t.Errorf("workers=%d: resets=%d but no background analyses recorded", workers, st.Resets)
		}
		return streams
	}
	inline := canonicalStreams(run(0))
	piped := canonicalStreams(run(2))
	if len(inline) == 0 {
		t.Fatal("inline run found no hot streams")
	}
	if len(inline) != len(piped) {
		t.Fatalf("inline found %d streams, pipelined %d", len(inline), len(piped))
	}
	for i := range inline {
		if inline[i].Heat != piped[i].Heat || !reflect.DeepEqual(inline[i].Refs, piped[i].Refs) {
			t.Fatalf("stream %d diverges:\n inline %v\n piped  %v", i, inline[i], piped[i])
		}
	}

	mi, err := NewMatcher(inline, 2)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := NewMatcher(piped, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range trace[:2000] {
		pf1, c1 := mi.Observe(r)
		pf2, c2 := mp.Observe(r)
		if c1 != c2 || !reflect.DeepEqual(pf1, pf2) {
			t.Fatalf("ref %d: inline matcher (%v, %d) != pipelined matcher (%v, %d)", i, pf1, c1, pf2, c2)
		}
	}
}

// canonicalStreams orders streams by heat (hottest first) breaking ties by
// reference sequence, removing the merge-order dependence among equal heats
// so stream sets can be compared across scheduling histories.
func canonicalStreams(streams []Stream) []Stream {
	out := make([]Stream, len(streams))
	copy(out, streams)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Heat != out[j].Heat {
			return out[i].Heat > out[j].Heat
		}
		a, b := out[i].Refs, out[j].Refs
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k].PC != b[k].PC {
				return a[k].PC < b[k].PC
			}
			if a[k].Addr != b[k].Addr {
				return a[k].Addr < b[k].Addr
			}
		}
		return len(a) < len(b)
	})
	return out
}

// TestGrammarSwapRacesAddStats churns grammar budget cycles through the
// background analysis pool while producers batch references in and an
// observer snapshots Stats — run under -race this validates the spare-grammar
// swap, the analysis queue, and the pipeline counters.
func TestGrammarSwapRacesAddStats(t *testing.T) {
	const shards = 2
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            shards,
		MaxGrammarSymbols: 256,
		cycleAnalysis:     AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.05, MaxStreams: 20},
		AnalysisWorkers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var obs sync.WaitGroup
	obs.Add(1)
	go func() {
		defer obs.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = sp.Stats().String()
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trace := shardTrace(i+1, 2000)
			for len(trace) > 0 {
				n := 64
				if n > len(trace) {
					n = len(trace)
				}
				if err := sp.AddBatch(i, trace[:n]); err != nil {
					t.Error(err)
					return
				}
				trace = trace[n:]
			}
		}(i)
	}
	wg.Wait()
	streams := hotStreams(t, sp, AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.001, MaxStreams: 100})
	if len(streams) == 0 {
		t.Error("no hot streams survived pipelined cycling")
	}
	close(stop)
	obs.Wait()
	st := sp.Stats()
	if st.Resets == 0 {
		t.Error("no grammar cycles ran")
	}
	if st.CyclesAnalyzed != st.Resets {
		t.Errorf("CyclesAnalyzed = %d, want %d (every cycle analyzed after drain)", st.CyclesAnalyzed, st.Resets)
	}
	if st.AnalysisLatency.Max == 0 {
		t.Error("AnalysisLatency.Max = 0 after background cycles")
	}
	if st.AnalysisLatency.Count != st.CyclesAnalyzed {
		t.Errorf("AnalysisLatency.Count = %d, want %d (one observation per analyzed cycle)",
			st.AnalysisLatency.Count, st.CyclesAnalyzed)
	}
	sp.Close()
	if st := sp.Stats(); st.AnalysisQueueDepth != 0 {
		t.Errorf("AnalysisQueueDepth = %d after Close, want 0", st.AnalysisQueueDepth)
	}
}

// shedRecall feeds trace through a Drop or Sample shard with no running
// consumer, draining one drainBatch of references after each run of every
// produced ones (a consumer that keeps up with drainBatch/every of the
// load), and returns the fraction of want's streams that the shed profile's
// hot streams rediscover.
func shedRecall(t *testing.T, policy IngestPolicy, trace []Ref, every int, want []Stream) float64 {
	t.Helper()
	sp := newShardedProfile(ShardedConfig{Shards: 1, Policy: policy}) // consumers intentionally not started
	s := sp.Shard(0)
	var batch [drainBatch]Ref
	for lo := 0; lo < len(trace); lo += every {
		if err := s.AddBatch(trace[lo:min(lo+every, len(trace))]); err != nil {
			t.Fatal(err)
		}
		s.drain.Lock()
		if n := s.pop(batch[:]); n > 0 {
			s.apply(batch[:n], false)
		}
		s.unlockDrain()
	}
	got := hotStreams(t, sp, DefaultAnalysisConfig())
	found := 0
	for _, w := range want {
		for _, g := range got {
			if sameStreamShape(w, g) {
				found++
				break
			}
		}
	}
	return float64(found) / float64(len(want))
}

// pcSig renders the pcs of refs, reps times over, with full-token
// delimiters (",1,12,"), so substring containment never matches across
// token boundaries.
func pcSig(refs []Ref, reps int) string {
	var b strings.Builder
	b.WriteByte(',')
	for i := 0; i < reps; i++ {
		for _, r := range refs {
			b.WriteString(strconv.Itoa(r.PC))
			b.WriteByte(',')
		}
	}
	return b.String()
}

// sameStreamShape reports whether got rediscovers the lossless stream want:
// got's pc sequence is a cyclic fragment of want's (a contiguous window of
// its repetition, any phase, up to two periods long) or contains want's
// whole sequence.
func sameStreamShape(want, got Stream) bool {
	return strings.Contains(pcSig(want.Refs, 2), pcSig(got.Refs, 1)) ||
		strings.Contains(pcSig(got.Refs, 1), pcSig(want.Refs, 1))
}

// TestShedPoliciesUnderPressure is the evidence each shedding policy is
// kept for: vpr's trace (600,000 references) goes through a shard whose
// drain keeps up with one reference in two (N = 512) or one in sixteen
// (N = 4096), and the hot streams it finds are matched against a lossless
// Profile's. Under mild pressure Drop keeps the first 256 references of
// every 512 and splits the streams at the seams, while Sample's 1-in-16
// spells let the ring drain, after which it accepts long unbroken runs:
// Sample must recover at least 90% of the lossless streams. Under heavy
// pressure Sample never leaves its 1-in-16 spell, which no stream survives,
// while the 256 references Drop keeps of every 4096 are contiguous: Drop
// must recover at least 90%.
func TestShedPoliciesUnderPressure(t *testing.T) {
	trace, err := workload.Build(workload.Vpr()).Capture(600000)
	if err != nil {
		t.Fatal(err)
	}
	lossless := NewProfile()
	lossless.AddAll(trace)
	want := lossless.HotStreams(DefaultAnalysisConfig())
	if len(want) == 0 {
		t.Fatal("the lossless profile found no hot streams")
	}
	for _, tc := range []struct {
		every int
		keep  IngestPolicy
	}{{512, Sample}, {4096, Drop}} {
		recall := map[IngestPolicy]float64{}
		for _, pol := range []IngestPolicy{Drop, Sample} {
			recall[pol] = shedRecall(t, pol, trace, tc.every, want)
		}
		t.Logf("N=%d: of %d lossless streams, drop recovers %.2f, sample %.2f",
			tc.every, len(want), recall[Drop], recall[Sample])
		if recall[tc.keep] < 0.9 {
			t.Errorf("N=%d: %v recovers %.2f of the lossless streams, want >= 0.9", tc.every, tc.keep, recall[tc.keep])
		}
	}
}
