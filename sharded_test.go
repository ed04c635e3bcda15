package hotprefetch

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// shardTrace builds a trace dominated by a repeating hot stream, with the
// stream's identity offset per producer so shards see distinct streams.
func shardTrace(producer, reps int) []Ref {
	stream := make([]Ref, 12)
	for i := range stream {
		stream[i] = Ref{PC: 100*producer + i, Addr: uint64(0x1000*producer + 8*i)}
	}
	var trace []Ref
	for r := 0; r < reps; r++ {
		trace = append(trace, stream...)
		// A little per-repetition noise so the grammar is not one rule.
		trace = append(trace, Ref{PC: 9000 + producer, Addr: uint64(r)})
	}
	return trace
}

// hotStreams is ShardedProfile.HotStreams for a test that expects its
// profile to reach quiescence: a stall fails the test.
func hotStreams(t *testing.T, sp *ShardedProfile, cfg AnalysisConfig) []Stream {
	t.Helper()
	streams, err := sp.HotStreams(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return streams
}

// flushedLen flushes sp, failing the test on a stall, and returns how many
// references its shards have compressed.
func flushedLen(t *testing.T, sp *ShardedProfile) uint64 {
	t.Helper()
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
	return sp.Stats().Consumed
}

func TestShardedProfileConcurrentProducers(t *testing.T) {
	const shards = 4
	sp := NewShardedProfile(shards)
	defer sp.Close()

	var total uint64
	var wg sync.WaitGroup
	traces := make([][]Ref, shards)
	for i := 0; i < shards; i++ {
		traces[i] = shardTrace(i+1, 200)
		total += uint64(len(traces[i]))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp.Shard(i).AddBatch(traces[i])
		}(i)
	}
	wg.Wait()

	if got := flushedLen(t, sp); got != total {
		t.Fatalf("consumed %d references, want %d", got, total)
	}

	cfg := AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.1}
	streams := hotStreams(t, sp, cfg)
	if len(streams) < shards {
		t.Fatalf("got %d hot streams, want at least %d (one per shard)", len(streams), shards)
	}
	// Every shard's hot stream should surface: look for each producer's
	// distinctive leading reference.
	for i := 0; i < shards; i++ {
		want := Ref{PC: 100 * (i + 1), Addr: uint64(0x1000 * (i + 1))}
		found := false
		for _, s := range streams {
			for _, r := range s.Refs {
				if r == want {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("no hot stream contains shard %d's leading ref %v", i, want)
		}
	}
}

func TestShardedProfileSingleShardEquivalence(t *testing.T) {
	trace := shardTrace(1, 300)

	want := NewProfile()
	want.AddBatch(trace)

	sp := NewShardedProfile(1)
	defer sp.Close()
	sp.Shard(0).AddBatch(trace)
	sp.Flush()

	if got, w := flushedLen(t, sp), want.Len(); got != w {
		t.Fatalf("consumed %d references, want %d", got, w)
	}
	cfg := AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.01, MaxStreams: 50}
	gotStreams := hotStreams(t, sp, cfg)
	wantStreams := want.HotStreams(cfg)
	if !reflect.DeepEqual(gotStreams, wantStreams) {
		t.Errorf("N=1 sharded HotStreams diverge from single Profile:\n got %v\nwant %v", gotStreams, wantStreams)
	}
}

func TestShardedProfileMergeOrdering(t *testing.T) {
	hot := func(pc int, heat uint64) Stream {
		return Stream{Refs: []Ref{{PC: pc, Addr: 1}, {PC: pc + 1, Addr: 2}}, Heat: heat}
	}
	perShard := [][]Stream{
		{hot(10, 50), hot(20, 10)},
		{hot(30, 70), hot(10, 50)}, // hot(10) duplicates shard 0's — heats sum to 100
	}
	merged := mergeStreams(perShard, 0)
	if len(merged) != 3 {
		t.Fatalf("merged %d streams, want 3 (duplicate collapsed)", len(merged))
	}
	wantHeat := []uint64{100, 70, 10}
	wantPC := []int{10, 30, 20}
	for i, s := range merged {
		if s.Heat != wantHeat[i] || s.Refs[0].PC != wantPC[i] {
			t.Errorf("merged[%d] = pc %d heat %d, want pc %d heat %d",
				i, s.Refs[0].PC, s.Heat, wantPC[i], wantHeat[i])
		}
	}

	capped := mergeStreams(perShard, 2)
	if len(capped) != 2 || capped[0].Heat != 100 || capped[1].Heat != 70 {
		t.Errorf("cap 2 kept %v, want the two hottest (100, 70)", capped)
	}
}

func TestShardedProfileCloseDrains(t *testing.T) {
	sp := NewShardedProfile(2)
	trace := shardTrace(1, 100)
	sp.Shard(0).AddBatch(trace)
	sp.Shard(1).AddBatch(trace)
	sp.Close()
	sp.Close() // idempotent
	if got, want := flushedLen(t, sp), uint64(2*len(trace)); got != want {
		t.Fatalf("consumed %d references after Close, want %d", got, want)
	}
}

func TestConcurrentMatcherRace(t *testing.T) {
	p := NewProfile()
	trace := shardTrace(1, 300)
	p.AddBatch(trace)
	streams := p.HotStreams(AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.1})
	if len(streams) == 0 {
		t.Fatal("no hot streams to match")
	}
	cm, err := NewConcurrentMatcher(streams, 2)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var prefetched [4]int
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for _, r := range trace[:120] {
					if pf, _ := cm.Observe(r); len(pf) > 0 {
						prefetched[g]++
					}
				}
			}
		}(g)
	}
	wg.Wait()

	total := 0
	for _, n := range prefetched {
		total += n
	}
	if total == 0 {
		t.Error("interleaved observation never completed a stream head")
	}
	cm.Reset()
	if cm.NumStates() < 2 {
		t.Errorf("NumStates = %d, want >= 2", cm.NumStates())
	}
}

// TestConcurrentMatcherMatchesSequential checks the wrapper is a plain
// pass-through when used from one goroutine.
func TestConcurrentMatcherMatchesSequential(t *testing.T) {
	p := NewProfile()
	trace := shardTrace(2, 300)
	p.AddBatch(trace)
	streams := p.HotStreams(AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.1})
	if len(streams) == 0 {
		t.Fatal("no hot streams to match")
	}

	m, err := NewMatcher(streams, 2)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewConcurrentMatcher(streams, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range trace {
		pf1, c1 := m.Observe(r)
		pf2, c2 := cm.Observe(r)
		if c1 != c2 || !reflect.DeepEqual(pf1, pf2) {
			t.Fatalf("ref %d: sequential (%v, %d) != concurrent (%v, %d)", i, pf1, c1, pf2, c2)
		}
	}
}

// TestMatcherHotSwapRacesObserve retrains a ConcurrentMatcher between two
// stream sets while observer goroutines hammer Observe — run under -race
// this validates the atomic-pointer publication: an observation lands wholly
// on the machine published before or after its swap, never on a torn table.
func TestMatcherHotSwapRacesObserve(t *testing.T) {
	cfg := AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.1}
	traceA, traceB := shardTrace(1, 300), shardTrace(2, 300)
	analyze := func(trace []Ref) []Stream {
		p := NewProfile()
		p.AddBatch(trace)
		streams := p.HotStreams(cfg)
		if len(streams) == 0 {
			t.Fatal("no hot streams to match")
		}
		return streams
	}
	sets := [][]Stream{analyze(traceA), analyze(traceB)}

	cm, err := NewConcurrentMatcher(sets[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, r := range traceA[:60] {
					cm.Observe(r)
				}
				for _, r := range traceB[:60] {
					cm.Observe(r)
				}
			}
		}()
	}
	const swaps = 50
	for i := 1; i <= swaps; i++ {
		if err := cm.Swap(sets[i%2]); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if got := cm.Swaps(); got != swaps {
		t.Errorf("Swaps = %d, want %d", got, swaps)
	}
	if cm.NumStates() < 2 {
		t.Errorf("NumStates = %d, want >= 2", cm.NumStates())
	}
}

// TestMergeStreamsKWayFastPath drives mergeStreams over sorted,
// duplicate-free lists — the common case, where no heat changes after
// extraction — and checks the exact stable-sort order, including equal-heat
// tie-breaking by list then position.
func TestMergeStreamsKWayFastPath(t *testing.T) {
	st := func(pc int, heat uint64) Stream {
		return Stream{Refs: []Ref{{PC: pc, Addr: 1}}, Heat: heat}
	}
	perShard := [][]Stream{
		{st(10, 90), st(11, 50), st(12, 50), st(13, 10)},
		{st(20, 70), st(21, 50), st(22, 20)},
		{},
		{st(30, 90), st(31, 5)},
	}
	got := mergeStreams(perShard, 0)
	wantPC := []int{10, 30, 20, 11, 12, 21, 22, 13, 31}
	if len(got) != len(wantPC) {
		t.Fatalf("merged %d streams, want %d", len(got), len(wantPC))
	}
	for i, s := range got {
		if s.Refs[0].PC != wantPC[i] {
			t.Errorf("merged[%d].PC = %d, want %d", i, s.Refs[0].PC, wantPC[i])
		}
	}
	capped := mergeStreams(perShard, 3)
	if len(capped) != 3 || capped[0].Refs[0].PC != 10 || capped[1].Refs[0].PC != 30 || capped[2].Refs[0].PC != 20 {
		t.Errorf("cap 3 kept %v, want PCs 10, 30, 20", capped)
	}
}

// TestMergeStreamsCapReleasesCutStreams: a capped merge keeps no cut stream
// reachable through its backing array, so a bank holding the result does not
// pin the dropped streams' references.
func TestMergeStreamsCapReleasesCutStreams(t *testing.T) {
	st := func(pc int, heat uint64) Stream {
		return Stream{Refs: []Ref{{PC: pc, Addr: 1}}, Heat: heat}
	}
	perShard := [][]Stream{
		{st(10, 90), st(11, 50), st(12, 40)},
		{st(11, 50), st(20, 30)}, // st(11) duplicates shard 0's
	}
	got := mergeStreams(perShard, 2)
	if len(got) != 2 || got[0].Refs[0].PC != 11 || got[1].Refs[0].PC != 10 {
		t.Fatalf("cap 2 kept %v, want PCs 11 (heat 100) and 10", got)
	}
	for i, cut := range got[len(got):cap(got)] {
		if cut.Refs != nil || cut.Heat != 0 {
			t.Fatalf("backing array slot %d past len still holds %v", len(got)+i, cut)
		}
	}
}

// waitConsumed polls, without calling Flush, until shard s has consumed
// every reference it accepted, reporting false after timeout: only the
// shard's own consumer can make the progress.
func waitConsumed(s *ProfileShard, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for s.consumed.Load() < s.pushed.Load() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// TestConsumerParksWhenIdle: once a shard's ring drains, its consumer goes
// to sleep on the shard's work waitq within 100 ms instead of polling, and a
// later Add rouses it — the reference is consumed with no Flush to drain it.
func TestConsumerParksWhenIdle(t *testing.T) {
	sp, err := NewShardedProfileConfig(ShardedConfig{Shards: 2, MaxGrammarSymbols: 256, AnalysisWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for i := 0; i < sp.NumShards(); i++ {
		s := sp.Shard(i)
		if err := s.AddBatch(shardTrace(i+1, 200)); err != nil {
			t.Fatal(err)
		}
		if !waitConsumed(s, 5*time.Second) {
			t.Fatalf("shard %d: consumer never drained its ring", i)
		}
		deadline := time.Now().Add(100 * time.Millisecond)
		for s.work.n.Load() != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d: consumer not asleep on work 100ms after its ring drained", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
		if err := s.Add(Ref{PC: 1, Addr: 64}); err != nil {
			t.Fatal(err)
		}
		if !waitConsumed(s, 5*time.Second) {
			t.Fatalf("shard %d: Add to an idle shard was never consumed without Flush", i)
		}
	}
}

// TestShardedNoLostWakeups races producers on every shard — single refs and
// short batches with random sub-millisecond pauses — against their consumers'
// parking, against each other's Flushes, and finally against Close. Every
// other publish is left to the consumer alone; a lost wake-up strands it and
// fails the consumer-only drain check. Every Flush returns nil, every
// reference is on the books exactly once, and no goroutine outlives Close.
func TestShardedNoLostWakeups(t *testing.T) {
	const (
		shards = 4
		rounds = 200
	)
	base := runtime.NumGoroutine()
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards: shards,
		Policy: Drop, // a batch is accepted or rejected whole, so the books stay exact
	})
	if err != nil {
		t.Fatal(err)
	}
	var produced, rejected [shards]uint64
	var published, checked sync.WaitGroup
	published.Add(shards)
	checked.Add(shards)
	lastStage := make(chan struct{})
	publish := func(i int, rng *rand.Rand, flush bool) error {
		s := sp.Shard(i)
		var err error
		n := 1
		if rng.IntN(2) == 0 {
			err = s.Add(Ref{PC: 100*i + rng.IntN(8), Addr: rng.Uint64N(1 << 12)})
		} else {
			n = 1 + rng.IntN(8)
			refs := make([]Ref, n)
			for k := range refs {
				refs[k] = Ref{PC: 100*i + k, Addr: uint64(64 * k)}
			}
			err = s.AddBatch(refs)
		}
		produced[i] += uint64(n)
		if errors.Is(err, ErrClosed) {
			rejected[i] += uint64(n)
			return err
		}
		if err != nil {
			t.Errorf("shard %d publish: %v", i, err)
			return err
		}
		time.Sleep(time.Duration(rng.IntN(500)) * time.Microsecond)
		if flush {
			if err := sp.Flush(); err != nil {
				t.Errorf("shard %d Flush: %v", i, err)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(i), 19))
			for k := 0; k < rounds; k++ {
				publish(i, rng, k%2 == 0)
			}
			// Consumer-only drain: no Flush runs anywhere until every
			// producer has checked its shard.
			published.Done()
			published.Wait()
			if !waitConsumed(sp.Shard(i), 5*time.Second) {
				t.Errorf("shard %d: %d/%d references consumed without Flush (lost wake-up)",
					i, sp.Shard(i).consumed.Load(), sp.Shard(i).pushed.Load())
			}
			checked.Done()
			<-lastStage
			for k := 0; ; k++ {
				if publish(i, rng, k%2 == 0) != nil {
					return
				}
			}
		}(i)
	}
	checked.Wait()
	close(lastStage)
	time.Sleep(20 * time.Millisecond) // Close lands among the last publishes
	sp.Close()
	wg.Wait()
	// What a producer pushed after its consumer's final drain is still
	// drained, on the caller.
	if err := sp.Flush(); err != nil {
		t.Fatalf("Flush after Close: %v", err)
	}
	st := sp.Stats()
	for i, ss := range st.Shards {
		if got := ss.Pushed + ss.Dropped + rejected[i]; got != produced[i] {
			t.Errorf("shard %d books %d references (pushed=%d dropped=%d rejected=%d), want %d",
				i, got, ss.Pushed, ss.Dropped, rejected[i], produced[i])
		}
		if ss.Consumed != ss.Pushed {
			t.Errorf("shard %d consumed %d of %d pushed references", i, ss.Consumed, ss.Pushed)
		}
	}
	waitGoroutines(t, base)
}

// TestFlushCyclesInPlaceWhileSpareIsOut drains several grammar cycles on
// Flush's goroutine with neither the worker nor the consumer running: the
// first cycle queues its grammar for the pool, and every later one, finding
// the spare out, analyzes in place, so Flush never waits on the pool. Once
// the worker runs, the queued cycle is analyzed too.
func TestFlushCyclesInPlaceWhileSpareIsOut(t *testing.T) {
	cfg := AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.1}
	sp := newShardedProfile(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		AnalysisWorkers:   1,
		cycleAnalysis:     cfg,
	}) // neither the consumer nor the worker is started yet
	if err := sp.Shard(0).AddBatch(shardTrace(1, 300)); err != nil {
		t.Fatal(err)
	}
	if err := sp.Flush(); err != nil {
		t.Fatalf("Flush with the pool stopped: %v", err)
	}
	st := sp.Stats()
	if st.Consumed != st.Pushed || st.Resets < 3 {
		t.Fatalf("consumed %d/%d references in %d cycles; want every reference and several cycles",
			st.Consumed, st.Pushed, st.Resets)
	}
	ss := st.Shards[0]
	if st.AnalysisQueueDepth != 1 || ss.PendingAnalyses != 1 ||
		ss.SpareMisses != st.Resets-1 || st.CyclesAnalyzed != st.Resets-1 {
		t.Fatalf("queued=%d pending=%d spare misses=%d analyzed=%d of %d cycles; "+
			"want the first cycle queued and the rest analyzed in place",
			st.AnalysisQueueDepth, ss.PendingAnalyses, ss.SpareMisses, st.CyclesAnalyzed, st.Resets)
	}
	sp.start()
	hotStreams(t, sp, cfg)
	sp.Close()
	st = sp.Stats()
	checkCycleInvariant(t, st)
	if st.CyclesAnalyzed != st.Resets {
		t.Errorf("analyzed %d of %d cycles once the worker ran", st.CyclesAnalyzed, st.Resets)
	}
}

// TestFlushAfterCloseCyclesInline: what a producer racing Close pushed after
// its consumer's final drain is still drained by a later Flush, and since
// the analysis pool has closed, the cycles that fall due run inline on the
// caller instead of sending on the closed queue.
func TestFlushAfterCloseCyclesInline(t *testing.T) {
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		AnalysisWorkers:   1,
		cycleAnalysis:     AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sp.Close()
	// A producer that passed Add's closed check before Close landed.
	s := sp.Shard(0)
	trace := shardTrace(1, 100)
	n := s.q.PushBatch(trace)
	s.pushed.Add(uint64(n))
	if err := sp.Flush(); err != nil {
		t.Fatalf("Flush after Close: %v", err)
	}
	st := sp.Stats()
	if st.Consumed != uint64(len(trace)) {
		t.Errorf("consumed %d of %d straggling references", st.Consumed, len(trace))
	}
	if st.Resets == 0 {
		t.Error("no cycle fell due during the drain")
	}
	checkCycleInvariant(t, st)
}
