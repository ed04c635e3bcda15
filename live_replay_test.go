package hotprefetch

import (
	"testing"

	"hotprefetch/internal/memsim"
	"hotprefetch/internal/workload"
)

// liveStep is the number of references between supervision polls in the
// live replay: one client publish of the daemon's default capture path.
const liveStep = 2048

// liveReplay plays trace through the live loop of a default daemon tenant —
// one shard, Block ingestion, a 4096-symbol grammar budget, one analysis
// worker, the prepass on — under a zero-config manual-Poll Supervisor. Each
// step of liveStep references first replays through the simulated memory
// hierarchy with the supervised matcher as its detection code
// (memsim.Replay: a reference pays for the comparisons the matcher
// executes, none while it is pass-through). The step is then ingested,
// flushed and analyzed to the bank before the supervisor polls. It returns
// the simulated cycles and the matcher's swaps.
func liveReplay(t *testing.T, trace []Ref) (cycles, swaps uint64) {
	t.Helper()
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		Policy:            Block,
		MaxGrammarSymbols: 4096,
		AnalysisWorkers:   1,
		Prepass:           PrepassOn,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	cm, err := NewConcurrentMatcher(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := Supervise(sp, cm, SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	mem := memsim.New(workload.CacheConfig())
	var now uint64
	for lo := 0; lo < len(trace); lo += liveStep {
		step := trace[lo:min(lo+liveStep, len(trace))]
		now, _ = memsim.Replay(mem, now, step, cm)
		if err := sp.Shard(0).AddBatch(step); err != nil {
			t.Fatal(err)
		}
		if err := sp.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := sp.drainAnalyses(); err != nil {
			t.Fatal(err)
		}
		if err := sup.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	return now, cm.Swaps()
}

// TestLiveLoopNoGainNeverMuchWorse replays Olden-style health, where
// prefetching has nothing to gain, through the live supervised loop. Each
// retrain reads only the evidence banked since the previous optimization,
// so a deoptimized stream set is not relearned: the supervisor settles on a
// small machine after a few swaps, and the program runs within 10% of its
// no-prefetch cycles. Retraining on every cycle ever banked instead swaps
// about every 8K references and runs over twice the no-prefetch cycles.
func TestLiveLoopNoGainNeverMuchWorse(t *testing.T) {
	const refs = 500_000
	for _, seed := range []int64{1, 977} {
		p := workload.DefaultHealth()
		p.Seed = seed
		trace, err := workload.BuildHealth(p).Capture(refs)
		if err != nil {
			t.Fatal(err)
		}
		if len(trace) < refs {
			t.Fatalf("seed %d: health halted after %d of %d references", seed, len(trace), refs)
		}
		base, _ := memsim.Replay(memsim.New(workload.CacheConfig()), 0, trace, nil)
		cycles, swaps := liveReplay(t, trace)
		ratio := float64(cycles) / float64(base)
		t.Logf("seed %d: cycles ratio %.4f, %d swaps", seed, ratio, swaps)
		if ratio > 1.10 {
			t.Errorf("seed %d: live cycles %.4f x the no-prefetch replay, want <= 1.10", seed, ratio)
		}
		if swaps > 4 {
			t.Errorf("seed %d: %d matcher swaps, want <= 4", seed, swaps)
		}
	}
}
