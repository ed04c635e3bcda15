package experiment

import (
	"testing"

	"hotprefetch/internal/workload"
)

// TestStaticVsDynamicShape asserts the paper's §1 hypothesis: the dynamic
// scheme beats one-shot static prefetching on phased programs, while on
// single-phase programs static is competitive (it skips re-profiling).
func TestStaticVsDynamicShape(t *testing.T) {
	if testing.Short() {
		t.Skip("workload runs")
	}
	t.Parallel()
	results, err := StaticVsDynamic([]workload.Params{workload.Vpr(), workload.Mcf()})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		t.Logf("%-7s phases=%d static=%+.1f%% dynamic=%+.1f%%", r.Name, r.Phases, r.Static, r.Dynamic)
	}
	vpr, mcf := results[0], results[1]
	if vpr.Dynamic >= vpr.Static {
		t.Errorf("vpr (phased): dynamic (%.1f%%) should beat static (%.1f%%)", vpr.Dynamic, vpr.Static)
	}
	// Static must still be a win on the single-phase benchmark, within a
	// few points of dynamic.
	if mcf.Static >= 0 {
		t.Errorf("mcf (single-phase): static should still win, got %+.1f%%", mcf.Static)
	}
	if diff := mcf.Static - mcf.Dynamic; diff > 8 || diff < -8 {
		t.Errorf("mcf: static (%.1f%%) should be within a few points of dynamic (%.1f%%)",
			mcf.Static, mcf.Dynamic)
	}
}

// TestSchedulingAblation asserts the §4.3 future-work finding: under a
// memory system with a bounded number of outstanding prefetch fills, bursty
// issue-all-at-match drops much of each stream's tail, and chunked
// scheduling recovers the loss — "more intelligent prefetch scheduling
// could produce larger benefits".
func TestSchedulingAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("workload runs")
	}
	t.Parallel()
	results, err := AblationScheduling(workload.Mcf(), []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		t.Logf("chunk=%d overhead=%+.1f%% dropped=%d lateStall=%d useful=%.2f",
			r.Chunk, r.Overhead, r.Dropped, r.LateStallCycles, r.UsefulRatio)
	}
	immediate, chunked := results[0], results[1]
	if immediate.Overhead >= 0 || chunked.Overhead >= 0 {
		t.Errorf("both variants should still win: immediate %+.1f%%, chunked %+.1f%%",
			immediate.Overhead, chunked.Overhead)
	}
	if chunked.Overhead >= immediate.Overhead {
		t.Errorf("under an MSHR limit, scheduled issue (%.1f%%) should beat bursty issue (%.1f%%)",
			chunked.Overhead, immediate.Overhead)
	}
	if chunked.Dropped >= immediate.Dropped {
		t.Errorf("scheduling should reduce dropped prefetches: %d vs %d",
			chunked.Dropped, immediate.Dropped)
	}
}

// TestHybridComparison asserts that adding the complementary stride
// prefetcher never destroys the dynamic win and typically improves it
// (it covers the regular index traffic the streams do not).
func TestHybridComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("workload runs")
	}
	t.Parallel()
	results, err := HybridComparison([]workload.Params{workload.Mcf()})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	t.Logf("%s dyn=%+.1f%% hybrid=%+.1f%%", r.Name, r.Dyn, r.Hybrid)
	if r.Hybrid > r.Dyn+1 {
		t.Errorf("hybrid (%.1f%%) should not be materially worse than dyn alone (%.1f%%)",
			r.Hybrid, r.Dyn)
	}
	if r.Hybrid >= 0 {
		t.Errorf("hybrid should still win, got %+.1f%%", r.Hybrid)
	}
}

// TestProfileStability reproduces the property the paper's intro relies on
// (reference [10]): hot data streams are stable across inputs at the code
// level. The same benchmark on two inputs must detect streams with strongly
// overlapping pc signatures while sharing almost no concrete addresses.
func TestProfileStability(t *testing.T) {
	if testing.Short() {
		t.Skip("workload runs")
	}
	results, err := ProfileStability([]workload.Params{workload.Mcf(), workload.Parser()}, 40000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		t.Logf("%-7s streams=%d/%d pcOverlap=%.2f concreteOverlap=%.2f",
			r.Name, r.StreamsA, r.StreamsB, r.Overlap, r.Concrete)
		if r.StreamsA == 0 || r.StreamsB == 0 {
			t.Errorf("%s: no streams detected", r.Name)
		}
		if r.Overlap < 0.5 {
			t.Errorf("%s: pc-signature overlap %.2f too low for stable profiles", r.Name, r.Overlap)
		}
		if r.Concrete > 0.1 {
			t.Errorf("%s: concrete stream overlap %.2f too high — inputs should differ", r.Name, r.Concrete)
		}
	}
}

// TestMotivationShares reproduces the paper's premise (§1, [8]/[28]): the
// detected hot data streams account for the bulk of references and, more
// importantly, the bulk of cache misses on the miss-heavy benchmarks.
func TestMotivationShares(t *testing.T) {
	if testing.Short() {
		t.Skip("workload runs")
	}
	results, err := Motivation([]workload.Params{workload.Mcf(), workload.Vpr()}, 50000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		t.Logf("%-7s streams=%d refShare=%.2f l1MissShare=%.2f l2MissShare=%.2f",
			r.Name, r.Streams, r.RefShare, r.L1MissShare, r.L2MissShare)
		if r.Streams == 0 {
			t.Errorf("%s: no streams", r.Name)
			continue
		}
		// Hot streams must cover a large share of misses — the property
		// that makes prefetching only them worthwhile. The paper's programs
		// show >80%; the synthetic workloads have deliberate warm traffic,
		// so expect a majority rather than a specific figure.
		if r.L2MissShare < 0.3 {
			t.Errorf("%s: streams cover only %.2f of memory misses", r.Name, r.L2MissShare)
		}
		if r.RefShare < 0.3 {
			t.Errorf("%s: streams cover only %.2f of references", r.Name, r.RefShare)
		}
	}
}

// TestReuseDistanceStructure validates the workload substrate's central
// property: a large share of warm accesses have reuse distances beyond the
// L2 capacity (so traversals miss and prefetching has latency to hide),
// while a meaningful share stays within L1 (the loop-local locality real
// programs have).
func TestReuseDistanceStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("workload runs")
	}
	results, err := ReuseDistances([]workload.Params{workload.Mcf(), workload.Vpr()}, 150000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		t.Logf("%-7s accesses=%d withinL1=%.2f withinL2=%.2f beyondL2=%.2f cold=%.2f",
			r.Name, r.Accesses, r.WithinL1, r.WithinL2, r.BeyondL2, r.ColdShare)
		if r.BeyondL2 < 0.3 {
			t.Errorf("%s: only %.2f of warm accesses reuse beyond L2 — prefetching would have nothing to hide",
				r.Name, r.BeyondL2)
		}
		if r.BeyondL2 > 0.99 {
			t.Errorf("%s: everything beyond L2 (%.2f) — implausibly structure-free", r.Name, r.BeyondL2)
		}
		if sum := r.WithinL1 + r.WithinL2 + r.BeyondL2; sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: shares sum to %.3f", r.Name, sum)
		}
	}
}
