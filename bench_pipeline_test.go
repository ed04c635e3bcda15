package hotprefetch

// Pipeline benchmarks for the phase-transition rework: batched ingestion
// through the shard rings, and the cycle-turnaround stall — the longest a
// producer is blocked while a grammar-budget cycle runs — inline versus
// pipelined through the background analysis pool.
//
//	go test -bench='AddBatch|CycleTurnaround' -benchmem .
//
// Medians of 3 runs are recorded in BENCH_pipeline.json; the acceptance bar
// is a >= 5x reduction in max ingest stall for the pipelined configuration.

import (
	"fmt"
	"testing"
)

// BenchmarkAddBatch measures end-to-end ingestion (producer push through
// consumer compression) per reference at increasing batch sizes with the
// two-level ingest front end on — the service's ingest configuration;
// batch1 is the per-reference Add baseline, where windows never fill and
// the front end is pure overhead. The curve should drop steeply once
// batches are long enough for runs and phrase windows to collapse.
func BenchmarkAddBatch(b *testing.B) {
	trace := coreTrace(1 << 16)
	for _, size := range []int{1, 4, 16, 256} {
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			sp, err := NewShardedProfileConfig(ShardedConfig{
				Shards:  1,
				prepass: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sp.Close()
			b.ReportAllocs()
			b.ResetTimer()
			pos := 0
			for i := 0; i < b.N; i += size {
				if pos+size > len(trace) {
					pos = 0
				}
				if err := sp.AddBatch(0, trace[pos:pos+size]); err != nil {
					b.Fatal(err)
				}
				pos += size
			}
		})
	}
}

// BenchmarkAddBatchLossless is the prior bit-identical ingest path (prepass
// off), kept benchmarked so the front end's win is always measured against
// a live number rather than a stale one.
func BenchmarkAddBatchLossless(b *testing.B) {
	trace := coreTrace(1 << 16)
	for _, size := range []int{16, 256} {
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			sp := NewShardedProfile(1)
			defer sp.Close()
			b.ReportAllocs()
			b.ResetTimer()
			pos := 0
			for i := 0; i < b.N; i += size {
				if pos+size > len(trace) {
					pos = 0
				}
				if err := sp.AddBatch(0, trace[pos:pos+size]); err != nil {
					b.Fatal(err)
				}
				pos += size
			}
		})
	}
}

// BenchmarkAddBatchBurst is BenchmarkAddBatch with the paper's bursty
// sampling front end enabled: the per-reference cost collapses to the burst
// controller's checking-phase bookkeeping (one Skip subtraction per
// checking span), since ~99.5% of references are shed before the ring.
func BenchmarkAddBatchBurst(b *testing.B) {
	trace := coreTrace(1 << 16)
	for _, size := range []int{1, 256} {
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			sp, err := NewShardedProfileConfig(ShardedConfig{
				Shards: 1,
				Burst:  BurstConfig{Enabled: true},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sp.Close()
			b.ReportAllocs()
			b.ResetTimer()
			pos := 0
			for i := 0; i < b.N; i += size {
				if pos+size > len(trace) {
					pos = 0
				}
				if err := sp.AddBatch(0, trace[pos:pos+size]); err != nil {
					b.Fatal(err)
				}
				pos += size
			}
			b.StopTimer()
			st := sp.Stats()
			if total := st.Pushed + st.Dropped + st.Sampled + st.BurstShed; st.BurstShed == 0 && total > 1<<16 {
				b.Fatal("burst front end shed nothing; sampling not exercised")
			}
		})
	}
}

// benchCycleTurnaround drives a grammar-budget shard hard enough to cycle
// repeatedly and reports, alongside the per-reference ingest cost, the
// longest stall a phase transition imposed on the ingest path
// ("max-stall-ns", from Stats.MaxCycleStall — measured on the consumer
// goroutine, so it is not polluted by producer-side scheduling noise).
// Inline cycling blocks ingestion for the whole cycle-end analysis;
// pipelined cycling swaps in a spare grammar and the stall collapses to a
// pointer exchange plus a channel send.
func benchCycleTurnaround(b *testing.B, workers int) {
	trace := coreTrace(1 << 16)
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 2048,
		cycleAnalysis:     AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.01, MaxStreams: 100},
		AnalysisWorkers:   workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sp.Close()
	s := sp.Shard(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Add(trace[i&(1<<16-1)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := sp.Flush(); err != nil {
		b.Fatal(err)
	}
	st := sp.Stats()
	b.ReportMetric(float64(st.MaxCycleStall.Nanoseconds()), "max-stall-ns")
	if st.Resets == 0 && b.N > 1<<16 {
		b.Fatalf("no grammar cycles in %d references; turnaround not exercised", b.N)
	}
}

func BenchmarkCycleTurnaroundInline(b *testing.B)    { benchCycleTurnaround(b, 0) }
func BenchmarkCycleTurnaroundPipelined(b *testing.B) { benchCycleTurnaround(b, 2) }
