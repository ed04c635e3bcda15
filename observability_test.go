package hotprefetch

import (
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recordingTracer appends every event under a mutex, the canonical Tracer
// for tests (emission is synchronous, so the mutex never blocks an emitter
// for long).
type recordingTracer struct {
	mu     sync.Mutex
	events []Event
}

func (r *recordingTracer) TraceEvent(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *recordingTracer) snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// TestTracerPhaseCycleSequence is the acceptance test for the event trace: a
// subscribed Tracer watches a full profile → optimize → deoptimize cycle and
// the exact ordered event sequence comes out. Cycle events (start, analyzed,
// banked) repeat once per grammar-budget cycle — how many cycles a trace
// needs is Sequitur's business — so the assertion is exact in two layers:
// the non-cycle events must be precisely the five-phase transition story,
// and every cycle must emit its three events as an uninterrupted, ordered
// triple between the profiling start and the first matcher swap.
func TestTracerPhaseCycleSequence(t *testing.T) {
	analysis := AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05}
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		cycleAnalysis:     analysis,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	tracer := &recordingTracer{}
	sp.Observer().Subscribe(tracer)

	cm, err := NewConcurrentMatcher(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := Supervise(sp, cm, SupervisorConfig{
		AccuracyFloor: 0.5,
		BadWindows:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	// Profile phase A until a cycle banks, optimize, then hit the machine
	// with phase B traffic it cannot match: one conclusive zero-accuracy
	// window deoptimizes.
	phaseA := phaseTrace(1, 40)
	feedUntilCycle(t, sp, phaseA, 0)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateOptimized {
		t.Fatalf("state after banked cycle = %v, want %v", got, StateOptimized)
	}
	observeAll(cm, phaseTrace(2, 20))
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateHibernating {
		t.Fatalf("state after stale window = %v, want %v", got, StateHibernating)
	}

	events := tracer.snapshot()
	if len(events) == 0 {
		t.Fatal("tracer received no events")
	}

	// Global ordering invariants: gapless strictly increasing Seq, monotone
	// When.
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d, want %d (gapless from 1)", i, e.Seq, i+1)
		}
		if i > 0 && e.When < events[i-1].When {
			t.Fatalf("event %d time %v precedes event %d time %v", i, e.When, i-1, events[i-1].When)
		}
	}

	// Layer 1: the phase/matcher story, exactly.
	var phases []EventKind
	for _, e := range events {
		switch e.Kind {
		case EventCycleStart, EventCycleAnalyzed, EventCycleBanked:
		default:
			phases = append(phases, e.Kind)
		}
	}
	want := []EventKind{
		EventPhaseProfiling,
		EventMatcherSwap, EventPhaseOptimized,
		EventMatcherSwap, EventPhaseHibernating,
	}
	if len(phases) != len(want) {
		t.Fatalf("phase/matcher events = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phase/matcher event %d = %v, want %v (full: %v)", i, phases[i], want[i], phases)
		}
	}

	// Layer 2: every cycle is an uninterrupted start → analyzed → banked
	// triple, and all of them land between the profiling start and the
	// optimizing swap.
	cycles := 0
	for i := 0; i < len(events); i++ {
		if events[i].Kind != EventCycleStart {
			continue
		}
		cycles++
		if i+2 >= len(events) ||
			events[i+1].Kind != EventCycleAnalyzed ||
			events[i+2].Kind != EventCycleBanked {
			t.Fatalf("cycle at event %d is not a start/analyzed/banked triple: %v %v %v",
				i, events[i].Kind, events[i+1].Kind, events[i+2].Kind)
		}
		if events[i].Shard != 0 || events[i+1].Shard != 0 || events[i+2].Shard != 0 {
			t.Fatalf("cycle events carry shard %d %d %d, want 0",
				events[i].Shard, events[i+1].Shard, events[i+2].Shard)
		}
		if events[i+2].Value == 0 {
			t.Fatalf("cycle banked 0 streams at event %d", i+2)
		}
		i += 2
	}
	if cycles == 0 {
		t.Fatal("no grammar cycle events in the trace")
	}
	firstSwap := 0
	for i, e := range events {
		if e.Kind == EventMatcherSwap {
			firstSwap = i
			break
		}
	}
	for i := firstSwap; i < len(events); i++ {
		switch events[i].Kind {
		case EventCycleStart, EventCycleAnalyzed, EventCycleBanked:
			t.Fatalf("cycle event %v at %d after the optimizing swap at %d", events[i].Kind, i, firstSwap)
		}
	}
	if events[0].Kind != EventPhaseProfiling {
		t.Fatalf("first event = %v, want %v", events[0].Kind, EventPhaseProfiling)
	}

	// Payload spot checks: the optimizing swap carries a positive stream
	// count, the deoptimizing swap carries zero.
	if events[firstSwap].Value == 0 {
		t.Fatal("optimizing swap carries 0 streams")
	}
	var lastSwap int
	for i, e := range events {
		if e.Kind == EventMatcherSwap {
			lastSwap = i
		}
	}
	if events[lastSwap].Value != 0 {
		t.Fatalf("deoptimizing swap carries %d streams, want 0", events[lastSwap].Value)
	}

	// The judged zero-accuracy window must have landed in the ratio
	// histogram.
	st := sp.Stats()
	if st.AccuracyWindows.Count == 0 {
		t.Fatal("AccuracyWindows histogram is empty after a judged window")
	}
	if st.AnalysisLatency.Count == 0 || st.IngestStall.Count == 0 || st.FlushLatency.Count == 0 {
		t.Fatalf("latency histograms empty: analysis=%d stall=%d flush=%d",
			st.AnalysisLatency.Count, st.IngestStall.Count, st.FlushLatency.Count)
	}

	// The ring snapshot agrees with the tracer on the tail of the stream.
	ringEvents := sp.Observer().Events()
	if len(ringEvents) == 0 {
		t.Fatal("observer ring is empty")
	}
	tail := events[len(events)-len(ringEvents):]
	for i := range ringEvents {
		if ringEvents[i] != tail[i] {
			t.Fatalf("ring event %d = %+v, tracer saw %+v", i, ringEvents[i], tail[i])
		}
	}
}

// TestMetricsEndpoint locks down the Prometheus exposition: after a
// supervised run, the scrape body must carry the analysis-latency and
// ingest-stall histograms and the supervisor phase-transition counters the
// acceptance criteria name, well-formed (cumulative buckets, _sum/_count).
func TestMetricsEndpoint(t *testing.T) {
	analysis := AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05}
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		cycleAnalysis:     analysis,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	cm, err := NewConcurrentMatcher(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := Supervise(sp, cm, SupervisorConfig{BadWindows: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	feedUntilCycle(t, sp, phaseTrace(1, 40), 0)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateOptimized {
		t.Fatalf("state = %v, want %v", got, StateOptimized)
	}

	srv := httptest.NewServer(sp.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text exposition format 0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE hotprefetch_analysis_latency_seconds histogram",
		`hotprefetch_analysis_latency_seconds_bucket{le="+Inf"}`,
		"hotprefetch_analysis_latency_seconds_sum",
		"hotprefetch_analysis_latency_seconds_count",
		"# TYPE hotprefetch_ingest_stall_seconds histogram",
		`hotprefetch_ingest_stall_seconds_bucket{le="+Inf"}`,
		"# TYPE hotprefetch_flush_duration_seconds histogram",
		"# TYPE hotprefetch_accuracy_window_ratio histogram",
		"# TYPE hotprefetch_phase_events_total counter",
		`hotprefetch_phase_events_total{kind="phase_profiling"} 1`,
		`hotprefetch_phase_events_total{kind="phase_optimized"} 1`,
		`hotprefetch_phase_events_total{kind="phase_hibernating"} 0`,
		"hotprefetch_refs_consumed_total",
		"hotprefetch_matcher_swaps_total 1",
		"hotprefetch_supervisor_reoptimizations_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape body missing %q", want)
		}
	}

	// Each event count is served once, as its phase_events_total sample:
	// the families that repeated one are gone, and the cycle_start sample
	// is the Resets count they used to print.
	for _, gone := range []string{
		"hotprefetch_grammar_resets_total",
		"hotprefetch_cycles_analyzed_total",
		"hotprefetch_analyses_failed_total",
		"hotprefetch_analyses_skipped_total",
		"hotprefetch_breaker_transitions_total",
		"hotprefetch_snapshot_writes_total",
		"hotprefetch_snapshot_restores_total",
		"hotprefetch_snapshot_load_failures_total",
	} {
		if strings.Contains(body, gone) {
			t.Errorf("scrape body still serves %s", gone)
		}
	}
	st := sp.Stats()
	wantResets := `hotprefetch_phase_events_total{kind="cycle_start"} ` + strconv.FormatUint(st.Resets, 10)
	if st.Resets == 0 || !strings.Contains(body, wantResets) {
		t.Errorf("scrape body missing %q", wantResets)
	}

	// Histogram sanity: the analysis-latency count series matches Stats.
	if st.AnalysisLatency.Count == 0 {
		t.Fatal("AnalysisLatency histogram empty after cycles")
	}
	wantCount := "hotprefetch_analysis_latency_seconds_count " + strconv.FormatUint(st.AnalysisLatency.Count, 10)
	if !strings.Contains(body, wantCount) {
		t.Errorf("scrape body missing %q", wantCount)
	}

	// The expvar bridge serves the same snapshot as Stats.String.
	v := sp.ExpvarVar()
	if s := v.String(); !strings.Contains(s, `"cycles_analyzed"`) || !strings.Contains(s, `"analysis_latency"`) {
		t.Errorf("expvar snapshot missing histogram fields: %s", s)
	}
}

// TestStatsInvariantUnderLoad is the satellite regression test for the
// transient snapshot invariant: with pipelined analysis racing ingestion, a
// sampler hammers Stats and every sample must satisfy
// CyclesAnalyzed + AnalysesFailed <= Resets — the books may run behind
// in-flight cycles but never ahead. After a drain the two sides must be
// equal.
func TestStatsInvariantUnderLoad(t *testing.T) {
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            4,
		MaxGrammarSymbols: 64,
		AnalysisWorkers:   2,
		cycleAnalysis:     AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.001, MaxStreams: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < sp.NumShards(); i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			trace := phaseTrace(shard+1, 8)
			for !stop.Load() {
				// Shift the working set every batch: identical batches
				// compress so well the grammar plateaus under its budget,
				// while novel addresses keep cycles firing.
				for j := range trace {
					trace[j].Addr += 1 << 20
				}
				if err := sp.AddBatch(shard, trace); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}

	// Sampler: every snapshot, under full load, must satisfy the invariant.
	deadline := time.Now().Add(500 * time.Millisecond)
	samples := 0
	for time.Now().Before(deadline) {
		st := sp.Stats()
		accounted := st.CyclesAnalyzed + st.AnalysesFailed
		if accounted > st.Resets {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("sample %d: CyclesAnalyzed(%d) + AnalysesFailed(%d) = %d > Resets(%d)",
				samples, st.CyclesAnalyzed, st.AnalysesFailed, accounted, st.Resets)
		}
		samples++
	}
	stop.Store(true)
	wg.Wait()

	// Drain: HotStreams waits out the rings and the analysis pool, after
	// which the books must balance exactly.
	hotStreams(t, sp, AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.001, MaxStreams: 100})
	st := sp.Stats()
	if st.Resets == 0 {
		t.Fatal("no grammar cycles ran; the hammer exercised nothing")
	}
	if got := st.CyclesAnalyzed + st.AnalysesFailed; got != st.Resets {
		t.Fatalf("after drain: CyclesAnalyzed+Failed = %d, want Resets = %d", got, st.Resets)
	}
	if samples < 100 {
		t.Logf("only %d invariant samples (slow machine?)", samples)
	}
}
