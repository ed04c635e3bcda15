package hotprefetch

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"hotprefetch/internal/memsim"
	"hotprefetch/internal/workload"
)

// Restore-vs-rebuild equivalence: a profile restored from a snapshot must be
// indistinguishable from the profile that wrote it — bit-identical
// BankedStreams, and the same prefetching outcome when its warm-started
// matcher drives the memory simulator over the same trace. Proven across
// the full workload catalog, not a synthetic trace.

// equivProfileConfig is the profile both sides of the comparison use: a
// grammar budget small enough that a 40k-reference trace banks several
// cycles.
func equivProfileConfig() ShardedConfig {
	return ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 512,
		cycleAnalysis:     AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.01},
	}
}

func TestSnapshotRestoreRebuildEquivalence(t *testing.T) {
	const traceRefs = 40000
	anyStreams := false
	for _, p := range workload.Catalog() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			trace, err := workload.Build(p).Capture(traceRefs)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := NewShardedProfileConfig(equivProfileConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer cold.Close()
			if err := cold.Shard(0).AddAll(trace); err != nil {
				t.Fatal(err)
			}
			if err := cold.Flush(); err != nil {
				t.Fatal(err)
			}
			want := cold.BankedStreams(0)

			var buf bytes.Buffer
			if err := cold.WriteSnapshot(&buf, 1); err != nil {
				t.Fatal(err)
			}
			warm, err := NewShardedProfileConfig(equivProfileConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer warm.Close()
			if _, err := warm.RestoreSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			got := warm.BankedStreams(0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restored BankedStreams diverged from rebuild:\n got %d streams\nwant %d streams", len(got), len(want))
			}
			if len(want) == 0 {
				t.Logf("%s banked no streams at this budget; stream equivalence is vacuous", p.Name)
				return
			}
			anyStreams = true

			// Same trace, two matchers: one compiled from the rebuilt bank,
			// one installed by a warm-started supervisor over the restored
			// profile. The prefetching outcome must agree.
			cmCold, err := NewConcurrentMatcher(want, 2)
			if err != nil {
				t.Fatal(err)
			}
			cmWarm, err := NewConcurrentMatcher(nil, 2)
			if err != nil {
				t.Fatal(err)
			}
			sup, err := Supervise(warm, cmWarm, SupervisorConfig{AccuracyFloor: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			defer sup.Close()
			if sup.State() != StateOptimized {
				t.Fatalf("warm supervisor state = %v, want %v", sup.State(), StateOptimized)
			}

			hc, hw := memsim.New(workload.CacheConfig()), memsim.New(workload.CacheConfig())
			memsim.Replay(hc, 0, trace, cmCold)
			memsim.Replay(hw, 0, trace, cmWarm)
			sc, sw := hc.Stats(), hw.Stats()
			if sc.UsefulPrefetches == 0 {
				t.Logf("%s: no useful prefetches at this budget (%d issued)", p.Name, sc.Prefetches)
			}
			tolAbs := func(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
			if !tolAbs(float64(sw.UsefulPrefetches), float64(sc.UsefulPrefetches), 0.02*float64(sc.UsefulPrefetches)+1) {
				t.Fatalf("useful prefetches diverged: warm %d vs rebuild %d", sw.UsefulPrefetches, sc.UsefulPrefetches)
			}
			if !tolAbs(sw.MissRatio(), sc.MissRatio(), 0.02) {
				t.Fatalf("miss ratio diverged: warm %.4f vs rebuild %.4f", sw.MissRatio(), sc.MissRatio())
			}
			t.Logf("%s: %d streams, useful prefetches warm=%d rebuild=%d, miss ratio warm=%.4f rebuild=%.4f",
				p.Name, len(want), sw.UsefulPrefetches, sc.UsefulPrefetches, sw.MissRatio(), sc.MissRatio())
		})
	}
	if !anyStreams {
		t.Error("no catalog workload banked streams; the equivalence suite proved nothing")
	}
}

// TestWarmStartTimeToFirstOptimization measures the satellite claim behind
// EXPERIMENTS.md's cold-vs-warm table: a cold supervisor needs a full
// profiling period (references fed until a cycle banks) before its first
// optimization, while a warm-started one is Optimized at zero references.
func TestWarmStartTimeToFirstOptimization(t *testing.T) {
	cfg := SupervisorConfig{AccuracyFloor: 0.5}

	cold, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		cycleAnalysis:     AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	cmCold, err := NewConcurrentMatcher(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	supCold, err := Supervise(cold, cmCold, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer supCold.Close()
	if supCold.State() != StateProfiling {
		t.Fatalf("cold supervisor starts %v, want %v", supCold.State(), StateProfiling)
	}
	trace := phaseTrace(1, 40)
	coldRefs := 0
	for i := 0; i < 200 && supCold.State() != StateOptimized; i++ {
		if err := cold.Shard(0).AddAll(trace); err != nil {
			t.Fatal(err)
		}
		if err := cold.Flush(); err != nil {
			t.Fatal(err)
		}
		coldRefs += len(trace)
		if err := supCold.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	if supCold.State() != StateOptimized {
		t.Fatal("cold supervisor never optimized")
	}
	if coldRefs == 0 {
		t.Fatal("cold supervisor optimized without profiling a single reference")
	}

	warm, _, supWarm := warmStart(t, cold, cfg)
	defer warm.Close()
	defer supWarm.Close()
	warmRefs := 0 // Optimized before any live reference
	if supWarm.State() != StateOptimized {
		t.Fatalf("warm supervisor state = %v at %d refs, want %v", supWarm.State(), warmRefs, StateOptimized)
	}
	t.Logf("time to first optimization: cold=%d refs, warm=%d refs", coldRefs, warmRefs)
}
