package hotprefetch

// Tests for the two-level ingest front end wired through ShardedProfile
// (ShardedConfig.prepass, which the Service sets for every tenant): banked
// hot-stream equivalence against the lossless path, grammar-budget safety
// under the front end's deferred symbol expansion, exact collapse
// accounting on every exit path, burst composition, and where it is on.

import (
	"sync"
	"testing"
)

// prepassTrace builds a per-producer trace of a repeating hot stream with
// interleaved noise — periodic enough that the phrase cache mints and hits.
func prepassTrace(producer, reps int) []Ref {
	stream := make([]Ref, 12)
	for i := range stream {
		stream[i] = Ref{PC: 100*producer + i, Addr: uint64(0x1000*producer + 8*i)}
	}
	var trace []Ref
	for r := 0; r < reps; r++ {
		trace = append(trace, stream...)
		trace = append(trace, Ref{PC: 9000 + producer, Addr: uint64(r % 7)})
	}
	return trace
}

// TestPrepassBankedStreamsEquivalence is the end-to-end contract check: the
// same trace profiled under grammar-budget cycling with the front end on
// and off must bank the same planted hot streams. Grammars are not
// bit-identical (cycle boundaries shift with grammar size), so the
// assertion is stream-level: every planted stream the lossless run banks,
// the prepass run banks too.
func TestPrepassBankedStreamsEquivalence(t *testing.T) {
	n := 300000
	if testing.Short() {
		n = 100000
	}
	trace := coreTrace(n)
	cycleCfg := AnalysisConfig{MinLen: 10, MaxLen: 100, MinUnique: 10, MinCoverage: 0.01, MaxStreams: 100}
	run := func(prepass bool) ([]Stream, Stats) {
		sp, err := NewShardedProfileConfig(ShardedConfig{
			Shards:            1,
			MaxGrammarSymbols: 4096,
			CycleAnalysis:     cycleCfg,
			prepass:           prepass,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sp.Close()
		if err := sp.Shard(0).AddAll(trace); err != nil {
			t.Fatal(err)
		}
		if err := sp.Flush(); err != nil {
			t.Fatal(err)
		}
		return sp.BankedStreams(0), sp.Stats()
	}

	lossless, offStats := run(false)
	banked, onStats := run(true)
	if offStats.Collapsed != 0 || offStats.PrepassMinted != 0 {
		t.Errorf("lossless run reports collapse accounting: collapsed %d, minted %d",
			offStats.Collapsed, offStats.PrepassMinted)
	}
	if onStats.Collapsed == 0 || onStats.PrepassMinted == 0 {
		t.Errorf("prepass run absorbed nothing: collapsed %d, minted %d",
			onStats.Collapsed, onStats.PrepassMinted)
	}
	if offStats.Resets == 0 || onStats.Resets == 0 {
		t.Fatalf("budget cycling not exercised: resets off=%d on=%d", offStats.Resets, onStats.Resets)
	}

	// coreTrace plants 20 streams with leading refs {PC: s*100, Addr: s<<20}.
	covered := func(streams []Stream, lead Ref) bool {
		for _, st := range streams {
			for _, r := range st.Refs {
				if r == lead {
					return true
				}
			}
		}
		return false
	}
	found := 0
	for s := 0; s < 20; s++ {
		lead := Ref{PC: s * 100, Addr: uint64(s) << 20}
		if !covered(lossless, lead) {
			continue
		}
		found++
		if !covered(banked, lead) {
			t.Errorf("planted stream %d banked by the lossless run but not through the prepass", s)
		}
	}
	if found == 0 {
		t.Fatal("lossless run banked none of the planted streams; trace too small to compare")
	}
}

// TestPrepassPeakUnderBudget checks the halved budget-chunking bound: the
// front end can emit up to two net symbols per reference (phrase mints and
// run doubling chains), and the shard's conservative chunk divisor must
// keep the grammar peak at or under MaxGrammarSymbols anyway.
func TestPrepassPeakUnderBudget(t *testing.T) {
	total := 2_000_000
	if testing.Short() {
		total = 300_000
	}
	const budget = 2048
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: budget,
		CycleAnalysis:     AnalysisConfig{MinLen: 10, MaxLen: 100, MinUnique: 10, MinCoverage: 0.01, MaxStreams: 100},
		prepass:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	s := sp.Shard(0)

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
		t.Errorf("peak grammar size %d exceeds budget %d with prepass on", peak, budget)
	}
	if st.Consumed != uint64(added) {
		t.Errorf("consumed %d, want %d", st.Consumed, added)
	}
	if st.Collapsed == 0 {
		t.Error("nothing collapsed across a heavily repetitive trace")
	}
	if st.Collapsed > st.Consumed {
		t.Errorf("collapsed %d exceeds consumed %d", st.Collapsed, st.Consumed)
	}
	if st.PrepassMinted == 0 {
		t.Error("no phrase/doubling rules minted")
	}
}

// TestPrepassReconciliation is the books-balance check with the front end
// on, per ingest policy under concurrent producers (run with -race): the
// producer ledger is untouched (Pushed + Dropped + Sampled = produced,
// Consumed = Pushed at quiescence) and the consumer-side collapse counter
// stays within Consumed on both the Flush and Close exit paths.
func TestPrepassReconciliation(t *testing.T) {
	reps := 8000
	if testing.Short() {
		reps = 2000
	}
	const producers = 4
	for _, pol := range []IngestPolicy{Block, Drop, Sample} {
		t.Run(pol.String(), func(t *testing.T) {
			sp, err := NewShardedProfileConfig(ShardedConfig{
				Shards:  producers,
				Policy:  pol,
				prepass: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			var produced uint64
			var mu sync.Mutex
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					trace := prepassTrace(p+1, reps)
					if err := sp.Shard(p).AddAll(trace); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					produced += uint64(len(trace))
					mu.Unlock()
				}(p)
			}
			wg.Wait()
			if err := sp.Flush(); err != nil {
				t.Fatal(err)
			}
			check := func(st Stats, when string) {
				if got := st.Pushed + st.Dropped + st.Sampled; got != produced {
					t.Errorf("%s: pushed %d + dropped %d + sampled %d = %d, want %d produced",
						when, st.Pushed, st.Dropped, st.Sampled, got, produced)
				}
				if st.Consumed != st.Pushed {
					t.Errorf("%s: consumed %d != pushed %d at quiescence", when, st.Consumed, st.Pushed)
				}
				if st.Collapsed > st.Consumed {
					t.Errorf("%s: collapsed %d exceeds consumed %d", when, st.Collapsed, st.Consumed)
				}
				var collapsed, minted uint64
				for i, ss := range st.Shards {
					if ss.Collapsed > ss.Consumed {
						t.Errorf("%s: shard %d collapsed %d exceeds consumed %d", when, i, ss.Collapsed, ss.Consumed)
					}
					collapsed += ss.Collapsed
					minted += ss.PrepassMinted
				}
				if collapsed != st.Collapsed || minted != st.PrepassMinted {
					t.Errorf("%s: shard sums collapsed %d minted %d, totals %d/%d",
						when, collapsed, minted, st.Collapsed, st.PrepassMinted)
				}
			}
			st := sp.Stats()
			check(st, "after flush")
			if st.Collapsed == 0 {
				t.Error("nothing collapsed across repetitive producer traces")
			}
			sp.Close()
			check(sp.Stats(), "after close")
		})
	}
}

// TestPrepassBurstComposition runs the bursty-sampling front end and the
// ingest prepass together: shedding happens at the producer boundary, the
// collapse happens on the consumer side of whatever survives, and the two
// ledgers stay independent and exact.
func TestPrepassBurstComposition(t *testing.T) {
	trace := prepassTrace(1, 20000)
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:  1,
		Burst:   BurstConfig{Enabled: true, NCheck: 190, NInstr: 10, NAwake: 5, NHibernate: 5},
		prepass: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if err := sp.Shard(0).AddAll(trace); err != nil {
		t.Fatal(err)
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
	st := sp.Stats()
	produced := uint64(len(trace))
	if got := st.Pushed + st.Dropped + st.Sampled + st.BurstShed; got != produced {
		t.Errorf("pushed %d + dropped %d + sampled %d + burstShed %d = %d, want %d produced",
			st.Pushed, st.Dropped, st.Sampled, st.BurstShed, got, produced)
	}
	if st.Consumed != st.Pushed {
		t.Errorf("consumed %d != pushed %d at quiescence", st.Consumed, st.Pushed)
	}
	if st.BurstShed == 0 {
		t.Error("burst front end shed nothing; composition not exercised")
	}
	if st.Collapsed == 0 {
		t.Error("prepass collapsed nothing behind the burst gate")
	}
	if st.Collapsed > st.Consumed {
		t.Errorf("collapsed %d exceeds consumed %d", st.Collapsed, st.Consumed)
	}
}

// TestPrepassAutoResolution: a plain ShardedProfile stays lossless (its one
// shard compresses bit-identically to a single Profile), while a Service
// tenant's profile runs the front end over the identical trace.
func TestPrepassAutoResolution(t *testing.T) {
	trace := prepassTrace(1, 3000)
	run := func(sp *ShardedProfile) Stats {
		if err := sp.Shard(0).AddAll(trace); err != nil {
			t.Fatal(err)
		}
		if err := sp.Flush(); err != nil {
			t.Fatal(err)
		}
		return sp.Stats()
	}
	plain := NewShardedProfile(1)
	defer plain.Close()
	if st := run(plain); st.Collapsed != 0 || st.PrepassMinted != 0 {
		t.Errorf("a plain ShardedProfile engaged the front end: collapsed %d, minted %d",
			st.Collapsed, st.PrepassMinted)
	}
	svc, err := NewService(ServiceConfig{Tenant: ShardedConfig{Shards: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	tn, err := svc.Tenant("t1")
	if err != nil {
		t.Fatal(err)
	}
	if st := run(tn.Profile()); st.Collapsed == 0 {
		t.Error("a Service tenant collapsed nothing over the same trace")
	}
}
