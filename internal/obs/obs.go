// Package obs is the profiling service's observability layer: a bounded
// ring of structured phase events with monotonic timestamps, fixed-bucket
// latency histograms, and Prometheus text-format exposition.
//
// The paper's system is judged entirely by online measurements — profiling
// overhead (Figure 11), analysis latency per optimization cycle, and
// prefetch accuracy (Table 2) — so a production deployment needs the same
// telemetry as first-class runtime output: distributions instead of lossy
// last/max scalars, and a timeline of phase transitions instead of
// point-in-time counters.
//
// Everything on an emission path is allocation-free: events are fixed-size
// values appended to a preallocated ring, histogram observation is a bucket
// search plus atomic adds, and tracer fan-out walks a copy-on-write slice.
// Emission is cheap enough for per-cycle use but is not meant for the
// per-reference hot path — references are observed through the histograms'
// callers at phase granularity (cycle stalls, analysis latencies), never
// one event per Ref.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies a phase event. The zero Kind is invalid.
type Kind uint8

const (
	// KindPhaseProfiling and KindPhaseOptimized mark the supervisor entering
	// the corresponding phase of the paper's §5 profile → optimize cycle:
	// profiling at start-up and after each deoptimization, optimized when a
	// trained machine is installed. For KindPhaseOptimized, Value is the
	// number of hot streams the installed machine serves; for
	// KindPhaseProfiling it is unused.
	KindPhaseProfiling Kind = iota + 1
	KindPhaseOptimized

	// KindCycleStart marks a shard's grammar hitting its symbol budget and
	// beginning a cycle-end phase transition. Value is the grammar size.
	KindCycleStart

	// KindCycleAnalyzed marks a cycle-end hot-stream analysis completing.
	// Value is the analysis latency in nanoseconds.
	KindCycleAnalyzed

	// KindCycleBanked marks a cycle's hot streams landing in the shard's
	// retained set. Value is the number of streams banked.
	KindCycleBanked

	// KindAnalysisFailed marks a cycle-end analysis that panicked. Value is
	// unused.
	KindAnalysisFailed

	// KindAnalysisSkipped is emitted by nothing: no cycle skips its
	// analysis. It stays only because the perfbench harness still reads its
	// count.
	KindAnalysisSkipped

	// KindMatcherSwap marks a ConcurrentMatcher publishing a retrained (or
	// pass-through) DFSM. Value is the new machine's stream count: zero
	// marks a deoptimizing swap to the pass-through machine.
	KindMatcherSwap

	// KindBurstAwake and KindBurstHibernate mark a shard's bursty-sampling
	// front end switching phase (paper §2.2: nAwake0 burst-periods of real
	// tracing alternating with nHibernate0 of near-silence). For
	// KindBurstHibernate, Value is the number of references sampled during
	// the awake phase that just ended; for KindBurstAwake it is the number
	// of references shed during the completed hibernation.
	KindBurstAwake
	KindBurstHibernate

	// KindSnapshotWritten marks a durable snapshot encode completing (Value
	// is the stream count written). KindSnapshotRestored marks a warm start
	// from a snapshot (Value is the stream count restored).
	// KindSnapshotLoadFailed marks a snapshot load rejected by the format
	// validator — corruption, truncation, or version skew — and the profile
	// degrading to cold profiling.
	KindSnapshotWritten
	KindSnapshotRestored
	KindSnapshotLoadFailed

	kindCount // sentinel; keep last
)

// NumKinds is the number of defined event kinds.
const NumKinds = int(kindCount) - 1

// String returns the snake_case kind name used as the Prometheus label.
func (k Kind) String() string {
	switch k {
	case KindPhaseProfiling:
		return "phase_profiling"
	case KindPhaseOptimized:
		return "phase_optimized"
	case KindCycleStart:
		return "cycle_start"
	case KindCycleAnalyzed:
		return "cycle_analyzed"
	case KindCycleBanked:
		return "cycle_banked"
	case KindAnalysisFailed:
		return "analysis_failed"
	case KindAnalysisSkipped:
		return "analysis_skipped"
	case KindMatcherSwap:
		return "matcher_swap"
	case KindBurstAwake:
		return "burst_awake"
	case KindBurstHibernate:
		return "burst_hibernate"
	case KindSnapshotWritten:
		return "snapshot_written"
	case KindSnapshotRestored:
		return "snapshot_restored"
	case KindSnapshotLoadFailed:
		return "snapshot_load_failed"
	default:
		return "unknown"
	}
}

// Event is one structured phase event. Events are small fixed-size values:
// they are stored in the ring and handed to tracers by value, so emission
// never allocates.
type Event struct {
	// Seq is the event's position in the observer's global emission order,
	// starting at 1. Gaps never occur; a tracer can detect ring overwrite by
	// comparing Seq against the ring snapshot.
	Seq uint64

	// When is the monotonic time of emission, measured from the observer's
	// creation. Monotonic by construction: events with higher Seq never have
	// smaller When.
	When time.Duration

	// Kind is the event type; Value is its kind-specific payload.
	Kind  Kind
	Value uint64

	// Shard is the index of the shard the event concerns, or -1 for events
	// that are not shard-scoped (supervisor phases, matcher swaps).
	Shard int32
}

// Tracer receives every event synchronously at emission, in order.
// Implementations must be fast and must not call back into the emitting
// subsystem (the emitter may hold internal locks); tests typically append
// to a slice under a private mutex.
type Tracer interface {
	TraceEvent(Event)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(Event)

// TraceEvent calls f(e).
func (f TracerFunc) TraceEvent(e Event) { f(e) }

// Observer is the observability hub one profiling service shares: the phase
// event ring, the latency histograms, and the per-kind event counters the
// Prometheus exporter reads. The zero value is not usable; call New.
//
// All methods are safe for concurrent use.
type Observer struct {
	start time.Time // monotonic base for Event.When

	// Latency and ratio distributions, recorded by the service at phase
	// granularity. Never nil.
	AnalysisLatency *Histogram // cycle-end hot-stream analysis wall time
	IngestStall     *Histogram // ingest-path stall charged to a grammar cycle
	FlushLatency    *Histogram // ShardedProfile.Flush wall time
	AccuracyWindow  *Histogram // supervisor accuracy-window hit ratio
	CompressLatency *Histogram // per-batch Sequitur compression wall time
	BurstDuty       *Histogram // per-phase burst sampling duty (sampled/checked)
	PrepassCollapse *Histogram // per-batch ingest front-end collapse ratio

	mu      sync.Mutex // guards ring writes and tracer registration
	ring    []Event    // fixed-capacity event ring
	next    uint64     // ring slot for the next event (monotone, mod len)
	seq     atomic.Uint64
	tracers atomic.Pointer[[]Tracer] // copy-on-write subscriber list

	counts [kindCount]atomic.Uint64 // emissions per kind
}

// DefaultRingCapacity is the event ring size used by New.
const DefaultRingCapacity = 1024

// New returns an Observer with the default ring capacity.
func New() *Observer { return NewWithCapacity(DefaultRingCapacity) }

// NewWithCapacity returns an Observer whose event ring holds capacity
// events (minimum 16); older events are overwritten once it wraps.
func NewWithCapacity(capacity int) *Observer {
	if capacity < 16 {
		capacity = 16
	}
	return &Observer{
		start:           time.Now(),
		ring:            make([]Event, capacity),
		AnalysisLatency: NewDurationHistogram("hotprefetch_analysis_latency_seconds", "Cycle-end hot-stream analysis latency."),
		IngestStall:     NewDurationHistogram("hotprefetch_ingest_stall_seconds", "Ingest-path stall charged to a grammar-budget cycle."),
		FlushLatency:    NewDurationHistogram("hotprefetch_flush_duration_seconds", "ShardedProfile.Flush wall time."),
		AccuracyWindow:  NewRatioHistogram("hotprefetch_accuracy_window_ratio", "Supervisor accuracy-window hits/issued ratio."),
		CompressLatency: NewDurationHistogram("hotprefetch_compress_latency_seconds", "Per-batch Sequitur compression latency (batches of 8+ references; smaller batches are below clock resolution)."),
		BurstDuty:       NewRatioHistogram("hotprefetch_burst_duty_ratio", "References sampled per burst phase over references checked."),
		PrepassCollapse: NewRatioHistogram("hotprefetch_prepass_collapse_ratio", "References absorbed by the two-level ingest front end per batch over batch size (batches of 8+ references)."),
	}
}

// Emit records one event: it stamps the sequence number and monotonic
// timestamp, appends to the ring (overwriting the oldest event when full),
// bumps the kind counter, and fans the event out to every subscribed
// tracer, synchronously and in subscription order. Allocation-free.
//
// shard is the shard index the event concerns, or a negative value for
// events that are not shard-scoped.
func (o *Observer) Emit(kind Kind, shard int, value uint64) {
	if kind <= 0 || kind >= kindCount {
		kind = 0 // counted nowhere, but still traced as unknown
	} else {
		o.counts[kind].Add(1)
	}
	sh := int32(shard)
	if shard < 0 {
		sh = -1
	}
	o.mu.Lock()
	e := Event{
		Seq:   o.seq.Add(1),
		When:  time.Since(o.start),
		Kind:  kind,
		Value: value,
		Shard: sh,
	}
	o.ring[o.next%uint64(len(o.ring))] = e
	o.next++
	o.mu.Unlock()
	if ts := o.tracers.Load(); ts != nil {
		for _, t := range *ts {
			t.TraceEvent(e)
		}
	}
}

// Subscribe registers t to receive every subsequent event. Tracers cannot
// be unsubscribed individually; subscribe for the observer's lifetime.
func (o *Observer) Subscribe(t Tracer) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var cur []Tracer
	if p := o.tracers.Load(); p != nil {
		cur = *p
	}
	next := make([]Tracer, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = t
	o.tracers.Store(&next)
}

// Events returns the ring contents, oldest first. The slice is a copy.
func (o *Observer) Events() []Event {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := o.next
	cap64 := uint64(len(o.ring))
	count := n
	if count > cap64 {
		count = cap64
	}
	out := make([]Event, 0, count)
	for i := n - count; i < n; i++ {
		out = append(out, o.ring[i%cap64])
	}
	return out
}

// Count returns the number of events emitted with the given kind.
func (o *Observer) Count(kind Kind) uint64 {
	if kind <= 0 || kind >= kindCount {
		return 0
	}
	return o.counts[kind].Load()
}

// Seq returns the sequence number of the most recent event (0 if none).
func (o *Observer) Seq() uint64 { return o.seq.Load() }

// Uptime returns the monotonic time since the observer was created — the
// clock Event.When is measured on.
func (o *Observer) Uptime() time.Duration { return time.Since(o.start) }
