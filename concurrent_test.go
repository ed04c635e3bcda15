package hotprefetch

import "testing"

// ledgerStreams profiles a repeating trace into the hot streams the ledger
// tests train on.
func ledgerStreams(t *testing.T, trace []Ref) []Stream {
	t.Helper()
	p := NewProfile()
	p.AddAll(trace)
	streams := p.HotStreams(AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.1})
	if len(streams) == 0 {
		t.Fatal("no hot streams to match")
	}
	return streams
}

// TestConcurrentMatcherReenableKeepsCounters pins the ledger's continuity
// across a repeated EnableAccuracyTracking — what a second Supervise over
// the same matcher does. The cumulative counters feed the
// hotprefetch_prefetches_*_total series and the supervisor's uint64 window
// deltas, so rewinding them would run a Prometheus counter backwards and
// wrap a delta.
func TestConcurrentMatcherReenableKeepsCounters(t *testing.T) {
	trace := shardTrace(2, 300)
	cm, err := NewConcurrentMatcher(ledgerStreams(t, trace), 2)
	if err != nil {
		t.Fatal(err)
	}
	cm.EnableAccuracyTracking(0)
	observeAll(cm, trace)
	issued, hits := cm.AccuracyCounters()
	if issued == 0 || hits == 0 {
		t.Fatalf("counters issued=%d hits=%d, want both > 0", issued, hits)
	}

	cm.EnableAccuracyTracking(0)
	cm.EnableAccuracyTracking(64)
	if gotIssued, gotHits := cm.AccuracyCounters(); gotIssued != issued || gotHits != hits {
		t.Fatalf("re-enabling moved the counters from (%d, %d) to (%d, %d)",
			issued, hits, gotIssued, gotHits)
	}
	observeAll(cm, trace)
	if moreIssued, moreHits := cm.AccuracyCounters(); moreIssued <= issued || moreHits <= hits {
		t.Fatalf("second replay left the counters at (%d, %d), want both above (%d, %d)",
			moreIssued, moreHits, issued, hits)
	}
}

// TestConcurrentMatcherSwapRetiresOutstanding checks what a Swap does to
// the one ledger: the outstanding window moves to dropped, so the replaced
// instance's prefetches can no longer hit, while issued and hits carry on
// and the books keep balancing.
func TestConcurrentMatcherSwapRetiresOutstanding(t *testing.T) {
	trace := shardTrace(3, 300)
	cm, err := NewConcurrentMatcher(ledgerStreams(t, trace), 2)
	if err != nil {
		t.Fatal(err)
	}
	cm.EnableAccuracyTracking(0)
	// Stop right after a prefetch fires, so addresses are outstanding.
	cut := -1
	for i, r := range trace {
		if pf, _ := cm.Observe(r); len(pf) > 0 && i > len(trace)/2 {
			cut = i + 1
			break
		}
	}
	if cut < 0 {
		t.Fatal("matcher never prefetched")
	}
	issued, hits, outstanding, dropped := cm.AccuracyBooks()
	if outstanding == 0 {
		t.Fatal("nothing outstanding right after a prefetch fired")
	}
	if issued != hits+outstanding+dropped {
		t.Fatalf("books do not balance: issued=%d hits=%d outstanding=%d dropped=%d",
			issued, hits, outstanding, dropped)
	}

	if err := cm.Swap(nil); err != nil {
		t.Fatal(err)
	}
	i2, h2, o2, d2 := cm.AccuracyBooks()
	if i2 != issued || h2 != hits || o2 != 0 || d2 != dropped+outstanding {
		t.Fatalf("books after Swap = (%d, %d, %d, %d), want (%d, %d, 0, %d)",
			i2, h2, o2, d2, issued, hits, dropped+outstanding)
	}
	// The rest of the trace touches the retired addresses: no hits, and the
	// pass-through instance issues nothing.
	observeAll(cm, trace[cut:])
	if i3, h3, o3, d3 := cm.AccuracyBooks(); i3 != i2 || h3 != h2 || o3 != 0 || d3 != d2 {
		t.Fatalf("pass-through replay moved the books to (%d, %d, %d, %d) from (%d, %d, 0, %d)",
			i3, h3, o3, d3, i2, h2, d2)
	}
}
