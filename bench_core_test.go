package hotprefetch

// Core-operation microbenchmarks for the zero-allocation hot paths: profile
// ingestion, grammar append, DFSM matching, and DFSM construction. Unlike
// bench_test.go (whole-experiment reproductions), these isolate the
// per-operation cost the paper charges against the running program, and they
// report allocations so steady-state regressions fail loudly.
//
//	go test -bench='ProfileAdd|GrammarAppend|MatcherObserve|DFSMBuild' -benchmem .
//
// Pre/post numbers for the arena + table rewrite are recorded in
// BENCH_core.json.

import (
	"math/rand"
	"testing"

	"hotprefetch/internal/sequitur"
)

// coreTrace builds a stream-rich reference trace shaped like the profiler's
// sampled bursts: 20 hot streams of 12-24 references plus ~12% noise.
func coreTrace(n int) []Ref {
	r := rand.New(rand.NewSource(7))
	var streams [][]Ref
	for s := 0; s < 20; s++ {
		st := make([]Ref, 12+r.Intn(12))
		for i := range st {
			st[i] = Ref{PC: s*100 + i, Addr: uint64(s)<<20 | uint64(i)*8}
		}
		streams = append(streams, st)
	}
	trace := make([]Ref, 0, n)
	for len(trace) < n {
		if r.Intn(8) == 0 {
			trace = append(trace, Ref{PC: 9000 + r.Intn(50), Addr: uint64(r.Intn(65536)) * 8})
		} else {
			trace = append(trace, streams[r.Intn(len(streams))]...)
		}
	}
	return trace[:n]
}

// coreStreams extracts hot streams from a profiled core trace, for the
// matcher benchmarks.
func coreStreams(tb testing.TB) []Stream {
	p := NewProfile()
	p.AddBatch(coreTrace(100000))
	streams := p.HotStreams(DefaultAnalysisConfig())
	if len(streams) == 0 {
		tb.Fatal("no hot streams in benchmark trace")
	}
	return streams
}

// BenchmarkProfileAdd measures one reference through the full ingestion path:
// interning plus incremental Sequitur compression.
func BenchmarkProfileAdd(b *testing.B) {
	trace := coreTrace(1 << 16)
	p := NewProfile()
	// Warm up so the arena, digram table, and interner reach steady state.
	p.AddBatch(trace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Add(trace[i&(1<<16-1)])
	}
}

// BenchmarkGrammarAppend measures the raw Sequitur append on pre-interned
// symbols, isolating the grammar maintenance cost.
func BenchmarkGrammarAppend(b *testing.B) {
	refs := coreTrace(1 << 16)
	vals := make([]uint64, len(refs))
	for i, r := range refs {
		vals[i] = uint64(r.PC)<<32 | r.Addr&0xffffffff
	}
	g := sequitur.New()
	g.AppendAll(vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Append(vals[i&(1<<16-1)])
	}
}

// BenchmarkGrammarAppendRun measures the batch-aware Sequitur append on
// pre-interned symbols in runs of 256 — the burst shape the sampling front
// end delivers — isolating what AppendRun's one-epoch digram handling saves
// over BenchmarkGrammarAppend's per-symbol path.
func BenchmarkGrammarAppendRun(b *testing.B) {
	refs := coreTrace(1 << 16)
	vals := make([]uint64, len(refs))
	for i, r := range refs {
		vals[i] = uint64(r.PC)<<32 | r.Addr&0xffffffff
	}
	g := sequitur.New()
	g.AppendAll(vals)
	b.ReportAllocs()
	b.ResetTimer()
	const run = 256
	pos := 0
	for i := 0; i < b.N; i += run {
		if pos+run > len(vals) {
			pos = 0
		}
		g.AppendRun(vals[pos : pos+run])
		pos += run
	}
}

// BenchmarkMatcherObserve measures one observed reference through the
// injected-check model: the per-reference cost charged as detection overhead.
func BenchmarkMatcherObserve(b *testing.B) {
	streams := coreStreams(b)
	m, err := NewMatcher(streams, 2)
	if err != nil {
		b.Fatal(err)
	}
	trace := coreTrace(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(trace[i&(1<<14-1)])
	}
}

// BenchmarkConcurrentMatcherObserve measures one observed reference through
// the production detection path: the default DFSM behind a
// ConcurrentMatcher, whose accuracy ledger Supervise reads. The delta over
// BenchmarkMatcherObserve is the step lock and the accuracy ledger.
func BenchmarkConcurrentMatcherObserve(b *testing.B) {
	cm, err := NewConcurrentMatcher(coreStreams(b), 2)
	if err != nil {
		b.Fatal(err)
	}
	trace := coreTrace(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Observe(trace[i&(1<<14-1)])
	}
}

// BenchmarkDFSMBuild measures constructing the combined prefix-matching DFSM
// from one optimization cycle's worth of hot streams.
func BenchmarkDFSMBuild(b *testing.B) {
	streams := coreStreams(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewMatcher(streams, 2)
		if err != nil {
			b.Fatal(err)
		}
		_ = m
	}
}

// BenchmarkPredictorObserve measures one observed reference through each
// registered predictor implementation, all trained on the same hot-stream
// set — the per-reference detection cost the head-to-head harness charges
// as cycles. The DFSM sub-benchmark must stay zero-alloc: it is the default
// production detection path.
func BenchmarkPredictorObserve(b *testing.B) {
	streams := coreStreams(b)
	trace := coreTrace(1 << 14)
	for _, name := range []string{"dfsm", "markov", "stride"} {
		b.Run(name, func(b *testing.B) {
			p, err := NewPredictor(name, streams, 2)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Observe(trace[i&(1<<14-1)])
			}
		})
	}
}
