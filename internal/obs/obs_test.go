package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEmitOrderAndRing(t *testing.T) {
	o := NewWithCapacity(16)
	for i := 0; i < 5; i++ {
		o.Emit(KindCycleStart, i, uint64(i*10))
	}
	evs := o.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: Seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.Kind != KindCycleStart || e.Shard != int32(i) || e.Value != uint64(i*10) {
			t.Errorf("event %d: %+v", i, e)
		}
		if i > 0 && e.When < evs[i-1].When {
			t.Errorf("event %d: When went backwards: %v < %v", i, e.When, evs[i-1].When)
		}
	}
	if o.Seq() != 5 {
		t.Errorf("Seq() = %d, want 5", o.Seq())
	}
	if o.Count(KindCycleStart) != 5 {
		t.Errorf("Count(cycle_start) = %d, want 5", o.Count(KindCycleStart))
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	o := NewWithCapacity(16)
	for i := 0; i < 40; i++ {
		o.Emit(KindCycleAnalyzed, 0, uint64(i))
	}
	evs := o.Events()
	if len(evs) != 16 {
		t.Fatalf("got %d events, want ring capacity 16", len(evs))
	}
	if evs[0].Seq != 25 || evs[15].Seq != 40 {
		t.Errorf("ring holds Seq %d..%d, want 25..40", evs[0].Seq, evs[15].Seq)
	}
}

func TestNegativeShardNormalized(t *testing.T) {
	o := New()
	o.Emit(KindMatcherSwap, -7, 3)
	if evs := o.Events(); evs[0].Shard != -1 {
		t.Errorf("Shard = %d, want -1", evs[0].Shard)
	}
}

func TestInvalidKindTracedNotCounted(t *testing.T) {
	o := New()
	o.Emit(Kind(200), 0, 0)
	if got := o.Count(Kind(200)); got != 0 {
		t.Errorf("Count(invalid) = %d, want 0", got)
	}
	evs := o.Events()
	if len(evs) != 1 || evs[0].Kind != 0 {
		t.Errorf("invalid kind not normalized: %+v", evs)
	}
	if evs[0].Kind.String() != "unknown" {
		t.Errorf("Kind(0).String() = %q", evs[0].Kind.String())
	}
}

func TestTracerFanoutOrder(t *testing.T) {
	o := New()
	var mu sync.Mutex
	var got []Event
	o.Subscribe(TracerFunc(func(e Event) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	}))
	var second []Kind
	o.Subscribe(TracerFunc(func(e Event) {
		mu.Lock()
		second = append(second, e.Kind)
		mu.Unlock()
	}))
	o.Emit(KindPhaseProfiling, -1, 0)
	o.Emit(KindPhaseOptimized, -1, 0)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0].Kind != KindPhaseProfiling || got[1].Kind != KindPhaseOptimized {
		t.Errorf("first tracer saw %+v", got)
	}
	if len(second) != 2 {
		t.Errorf("second tracer saw %d events, want 2", len(second))
	}
}

func TestKindStringsDistinct(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(1); k < kindCount; k++ {
		s := k.String()
		if s == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share name %q", prev, k, s)
		}
		seen[s] = k
	}
	if len(seen) != NumKinds {
		t.Errorf("NumKinds = %d, named %d", NumKinds, len(seen))
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewDurationHistogram("test_seconds", "test")
	h.ObserveDuration(500 * time.Nanosecond) // below first bound -> bucket 0
	h.ObserveDuration(time.Microsecond)      // exactly the first bound -> bucket 0
	h.ObserveDuration(3 * time.Microsecond)  // (2µs, 5µs] -> bucket 2
	h.ObserveDuration(time.Minute)           // above all bounds -> +Inf bucket
	h.ObserveDuration(-time.Second)          // clamped to 0 -> bucket 0
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if got := s.Buckets[0].Count; got != 3 {
		t.Errorf("bucket 0 count = %d, want 3", got)
	}
	if got := s.Buckets[2].Count; got != 1 {
		t.Errorf("bucket 2 count = %d, want 1", got)
	}
	inf := s.Buckets[len(s.Buckets)-1]
	if inf.UpperBound != 0 || inf.Count != 1 {
		t.Errorf("+Inf bucket = %+v", inf)
	}
	if s.Max != uint64(time.Minute) {
		t.Errorf("Max = %d, want %d", s.Max, uint64(time.Minute))
	}
	if s.Last != 0 {
		t.Errorf("Last = %d, want 0 (clamped negative)", s.Last)
	}
	if s.MaxDuration() != time.Minute {
		t.Errorf("MaxDuration = %v", s.MaxDuration())
	}
	wantSum := uint64(500 + 1000 + 3000 + time.Minute.Nanoseconds())
	if s.Sum != wantSum {
		t.Errorf("Sum = %d, want %d", s.Sum, wantSum)
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewRatioHistogram("test_ratio", "test")
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Error("empty Mean must be 0")
	}
	h.ObserveRatio(0.25)
	h.ObserveRatio(0.75)
	h.ObserveRatio(2.0)  // clamps to 1
	h.ObserveRatio(-0.5) // clamps to 0
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("Count = %d", s.Count)
	}
	if got := s.Mean(); got != 500 {
		t.Errorf("Mean = %g permille, want 500", got)
	}
	if s.Max != 1000 {
		t.Errorf("Max = %d, want 1000", s.Max)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewDurationHistogram("a", "")
	b := NewDurationHistogram("b", "")
	a.ObserveDuration(time.Microsecond)
	b.ObserveDuration(time.Millisecond)
	b.ObserveDuration(time.Second)
	a.Merge(b)
	s := a.Snapshot()
	if s.Count != 3 {
		t.Errorf("merged Count = %d, want 3", s.Count)
	}
	if s.Max != uint64(time.Second) {
		t.Errorf("merged Max = %d", s.Max)
	}
}

func TestHistogramMergePanicsOnLayoutMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("merge of mismatched layouts must panic")
		}
	}()
	NewDurationHistogram("a", "").Merge(NewRatioHistogram("b", ""))
}

func TestNewHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted bounds must panic")
		}
	}()
	NewHistogram("x", "", []uint64{10, 10}, 1)
}

func TestWritePrometheusHistogram(t *testing.T) {
	h := NewDurationHistogram("hp_test_seconds", "A test histogram.")
	h.ObserveDuration(3 * time.Microsecond)
	h.ObserveDuration(30 * time.Millisecond)
	var b strings.Builder
	h.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP hp_test_seconds A test histogram.",
		"# TYPE hp_test_seconds histogram",
		`hp_test_seconds_bucket{le="1e-06"} 0`,
		`hp_test_seconds_bucket{le="5e-06"} 1`, // cumulative
		`hp_test_seconds_bucket{le="10"} 2`,
		`hp_test_seconds_bucket{le="+Inf"} 2`,
		"hp_test_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusObserver(t *testing.T) {
	o := New()
	o.Emit(KindPhaseProfiling, -1, 0)
	o.Emit(KindPhaseOptimized, -1, 0)
	o.Emit(KindCycleStart, 0, 128)
	o.AnalysisLatency.ObserveDuration(time.Millisecond)
	o.IngestStall.ObserveDuration(2 * time.Microsecond)
	var b strings.Builder
	o.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"hotprefetch_analysis_latency_seconds_count 1",
		"hotprefetch_ingest_stall_seconds_count 1",
		"hotprefetch_flush_duration_seconds_count 0",
		"hotprefetch_accuracy_window_ratio_count 0",
		`hotprefetch_phase_events_total{kind="cycle_start"} 1`,
		`hotprefetch_phase_events_total{kind="matcher_swap"} 0`,
		`hotprefetch_phase_events_total{kind="phase_optimized"} 1`,
		`hotprefetch_phase_events_total{kind="phase_profiling"} 1`,
		`hotprefetch_phase_events_total{kind="phase_hibernating"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCounterAndGauge(t *testing.T) {
	var b strings.Builder
	WriteCounter(&b, "hp_refs_total", "Refs.", 42)
	WriteCounter(&b, "hp_labeled_total", "", 7, "shard", "3")
	WriteGauge(&b, "hp_state", "State.", 2)
	out := b.String()
	for _, want := range []string{
		"# TYPE hp_refs_total counter",
		"hp_refs_total 42",
		`hp_labeled_total{shard="3"} 7`,
		"# TYPE hp_state gauge",
		"hp_state 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "# HELP hp_labeled_total") {
		t.Error("empty help must not emit a HELP line")
	}
}

func TestPromEscape(t *testing.T) {
	var b strings.Builder
	WriteCounter(&b, "hp_esc_total", "", 1, "path", "a\"b\\c\nd")
	if !strings.Contains(b.String(), `path="a\"b\\c\nd"`) {
		t.Errorf("label not escaped: %s", b.String())
	}
	// A scrape escapes every labeled sample's values, nearly all plain.
	if allocs := testing.AllocsPerRun(100, func() { promEscape("tenant-7") }); allocs != 0 {
		t.Errorf("escaping a plain label value allocates %.1f objects, want 0", allocs)
	}
}

// TestEmitDoesNotAllocate locks in the zero-allocation emission contract:
// ring append, kind counter, and tracer fan-out all run without a single
// heap allocation.
func TestEmitDoesNotAllocate(t *testing.T) {
	o := New()
	o.Subscribe(TracerFunc(func(Event) {}))
	allocs := testing.AllocsPerRun(1000, func() {
		o.Emit(KindCycleStart, 1, 64)
		o.AnalysisLatency.Observe(1000)
		o.AccuracyWindow.ObserveRatio(0.5)
	})
	if allocs != 0 {
		t.Errorf("emission allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkObserve measures the observability hot path with a subscriber
// attached: one phase event plus two histogram observations. The acceptance
// bar is 0 allocs/op.
func BenchmarkObserve(b *testing.B) {
	o := New()
	o.Subscribe(TracerFunc(func(Event) {}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Emit(KindCycleStart, 0, uint64(i))
		o.IngestStall.Observe(uint64(i) & 0xffff)
		o.AnalysisLatency.Observe(uint64(i) & 0xfffff)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewDurationHistogram("bench_seconds", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i) & 0xffffff)
	}
}
