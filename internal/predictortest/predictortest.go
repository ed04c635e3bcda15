// Package predictortest is the differential conformance suite every
// registered Predictor implementation must pass. The suite pins the
// interface contracts the rest of the runtime leans on — bit-exact
// determinism across instances, pass-through behavior when untrained,
// replayability after Reset, and books that balance when ConcurrentMatcher's
// accuracy ledger measures it — so a new predictor that passes Conformance
// can be dropped behind ConcurrentMatcher and the Supervisor without further
// ceremony.
//
// It lives under internal/ because it imports the root package (legal: an
// internal package may import its parent); the root package's external test
// files import it back.
package predictortest

import (
	"reflect"
	"testing"

	"hotprefetch"
)

// Trace builds a deterministic synthetic reference trace dominated by
// repeating hot streams with interspersed noise — enough regularity for
// every predictor family (prefix matcher, Markov table, stride table) to
// train on something, enough noise to exercise the miss paths.
func Trace(phase, reps int) []hotprefetch.Ref {
	stream := make([]hotprefetch.Ref, 10)
	for i := range stream {
		stream[i] = hotprefetch.Ref{
			PC:   1000*phase + i,
			Addr: uint64(0x10000*phase + 64*i),
		}
	}
	// A second, strided stream keeps the stride table's confidence counters
	// busy within one page.
	ascend := make([]hotprefetch.Ref, 8)
	for i := range ascend {
		ascend[i] = hotprefetch.Ref{PC: 5000 + phase, Addr: uint64(0x400000 + 32*i)}
	}
	var trace []hotprefetch.Ref
	for r := 0; r < reps; r++ {
		trace = append(trace, stream...)
		trace = append(trace, ascend...)
		trace = append(trace, hotprefetch.Ref{
			PC:   90000 + phase,
			Addr: uint64(0xdead0000 + 128*r),
		})
	}
	return trace
}

// Streams profiles the trace and returns its hot streams, failing the test
// if nothing hot is found (a conformance run over zero streams would
// vacuously pass).
func Streams(t *testing.T, trace []hotprefetch.Ref) []hotprefetch.Stream {
	t.Helper()
	p := hotprefetch.NewProfile()
	p.AddBatch(trace)
	streams := p.HotStreams(hotprefetch.AnalysisConfig{
		MinLen: 2, MaxLen: 100, MinCoverage: 0.05,
	})
	if len(streams) == 0 {
		t.Fatal("predictortest: no hot streams in the synthetic trace")
	}
	return streams
}

// step is one recorded Observe outcome.
type step struct {
	prefetch []uint64
	cmp      int
}

// record replays the trace through p and captures every outcome. The
// returned slices are deep copies: Predictor allows the prefetch slice to
// alias internal state only until the next Observe.
func record(p hotprefetch.Predictor, trace []hotprefetch.Ref) []step {
	out := make([]step, len(trace))
	for i, r := range trace {
		pf, cmp := p.Observe(r)
		out[i] = step{prefetch: append([]uint64(nil), pf...), cmp: cmp}
	}
	return out
}

// diffSteps fails the test at the first index where the two replays
// disagree.
func diffSteps(t *testing.T, label string, a, b []step) {
	t.Helper()
	for i := range a {
		if a[i].cmp != b[i].cmp || !reflect.DeepEqual(a[i].prefetch, b[i].prefetch) {
			t.Fatalf("%s: diverged at ref %d: (%v, %d) != (%v, %d)",
				label, i, a[i].prefetch, a[i].cmp, b[i].prefetch, b[i].cmp)
		}
	}
}

// Conformance runs the full contract suite against the named registered
// predictor: build it via the registry exactly as ConcurrentMatcher would.
func Conformance(t *testing.T, name string, streams []hotprefetch.Stream, trace []hotprefetch.Ref) {
	t.Helper()

	t.Run("determinism", func(t *testing.T) {
		// Two instances trained on the same streams must produce bit-exact
		// prefetch sequences and comparison counts over the same trace —
		// the property the differential harness and warm-start validation
		// both assume.
		a, err := hotprefetch.NewPredictor(name, streams, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := hotprefetch.NewPredictor(name, streams, 2)
		if err != nil {
			t.Fatal(err)
		}
		diffSteps(t, "instance A vs B", record(a, trace), record(b, trace))
	})

	t.Run("untrained-pass-through", func(t *testing.T) {
		// Built over no streams, every implementation is the deoptimized
		// state: no prefetch ever, and no detection code, so no comparison.
		p, err := hotprefetch.NewPredictor(name, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range trace {
			pf, cmp := p.Observe(r)
			if len(pf) != 0 {
				t.Fatalf("untrained predictor prefetched %v at ref %d", pf, i)
			}
			if cmp != 0 {
				t.Fatalf("comparisons = %d at ref %d, want 0", cmp, i)
			}
		}
	})

	t.Run("reset-replay", func(t *testing.T) {
		// Reset returns the rolling match state to the start: a replay
		// after Reset is bit-identical to the first replay.
		p, err := hotprefetch.NewPredictor(name, streams, 2)
		if err != nil {
			t.Fatal(err)
		}
		first := record(p, trace)
		p.Reset()
		diffSteps(t, "first vs post-Reset replay", first, record(p, trace))
	})

	t.Run("accuracy-books", func(t *testing.T) {
		// ConcurrentMatcher's FIFO-window ledger must balance exactly over
		// this predictor: issued == hits + outstanding + dropped. The full
		// trace exercises hits and coalescing; window evictions are covered
		// by the ledger's own differential tests.
		cm, err := hotprefetch.NewConcurrentPredictor(name, streams, 2)
		if err != nil {
			t.Fatal(err)
		}
		var issuedSum uint64
		for _, r := range trace {
			pf, _ := cm.Observe(r)
			issuedSum += uint64(len(pf))
		}
		issued, hits, outstanding, dropped := cm.AccuracyBooks()
		if issued != hits+outstanding+dropped {
			t.Fatalf("books do not balance: issued=%d != hits=%d + outstanding=%d + dropped=%d",
				issued, hits, outstanding, dropped)
		}
		if issued != issuedSum {
			t.Fatalf("ledger issued=%d, observed %d prefetch addresses", issued, issuedSum)
		}
		cIssued, cHits := cm.AccuracyCounters()
		if cIssued != issued || cHits != hits {
			t.Fatalf("AccuracyCounters (%d, %d) disagree with books (%d, %d)",
				cIssued, cHits, issued, hits)
		}
	})
}
