package hotprefetch

import (
	"expvar"
	"io"
	"net/http"
	"sort"

	"hotprefetch/internal/obs"
)

// The observability layer lives in internal/obs; these aliases re-export the
// types that appear in the public API (Stats snapshots, Tracer subscription)
// so importers never need to reach into an internal package.

// Observer is the observability hub a ShardedProfile emits phase events and
// latency observations into; every profile builds its own, reached through
// ShardedProfile.Observer.
type Observer = obs.Observer

// Event is one structured phase event; see Observer.Subscribe.
type Event = obs.Event

// EventKind identifies a phase event's type.
type EventKind = obs.Kind

// Tracer receives every phase event synchronously at emission.
type Tracer = obs.Tracer

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc = obs.TracerFunc

// HistogramSnapshot is a point-in-time copy of a latency or ratio
// distribution, carried by Stats.
type HistogramSnapshot = obs.HistogramSnapshot

// Re-exported event kinds; see the internal/obs documentation for each
// kind's Value payload.
const (
	EventPhaseProfiling   = obs.KindPhaseProfiling
	EventPhaseOptimized   = obs.KindPhaseOptimized
	EventPhaseHibernating = obs.KindPhaseHibernating
	EventCycleStart       = obs.KindCycleStart
	EventCycleAnalyzed    = obs.KindCycleAnalyzed
	EventCycleBanked      = obs.KindCycleBanked
	EventAnalysisFailed   = obs.KindAnalysisFailed
	EventAnalysisSkipped  = obs.KindAnalysisSkipped
	EventBreakerOpen      = obs.KindBreakerOpen
	EventBreakerHalfOpen  = obs.KindBreakerHalfOpen
	EventBreakerClosed    = obs.KindBreakerClosed
	EventMatcherSwap      = obs.KindMatcherSwap
	EventBurstAwake       = obs.KindBurstAwake
	EventBurstHibernate   = obs.KindBurstHibernate

	EventSnapshotWritten    = obs.KindSnapshotWritten
	EventSnapshotRestored   = obs.KindSnapshotRestored
	EventSnapshotLoadFailed = obs.KindSnapshotLoadFailed
)

// WriteMetrics writes the profile's metrics in Prometheus text exposition
// format (version 0.0.4): the observer's latency histograms and phase-event
// counters, plus counter and gauge series derived from a Stats snapshot.
func (sp *ShardedProfile) WriteMetrics(w io.Writer) {
	sp.obs.WritePrometheus(w)
	st := sp.Stats()
	obs.WriteCounter(w, "hotprefetch_refs_pushed_total", "References accepted into shard rings.", st.Pushed)
	obs.WriteCounter(w, "hotprefetch_refs_consumed_total", "References compressed into grammars.", st.Consumed)
	obs.WriteCounter(w, "hotprefetch_refs_dropped_total", "References shed on full rings.", st.Dropped)
	obs.WriteCounter(w, "hotprefetch_refs_sampled_out_total", "References skipped by sampling degradation.", st.Sampled)
	obs.WriteCounter(w, "hotprefetch_burst_shed_total", "References shed by the bursty-sampling front end.", st.BurstShed)
	obs.WriteCounter(w, "hotprefetch_refs_quota_shed_total", "References shed at the producer boundary by the reference quota.", st.QuotaShed)
	obs.WriteCounter(w, "hotprefetch_prepass_collapsed_refs_total", "Consumed references absorbed by the two-level ingest front end.", st.Collapsed)
	obs.WriteCounter(w, "hotprefetch_prepass_minted_rules_total", "Phrase and doubling rules minted by the ingest front end.", st.PrepassMinted)
	if sp.cfg.Burst.Enabled {
		bc := sp.cfg.Burst.controllerConfig()
		obs.WriteGauge(w, "hotprefetch_burst_sampling_rate", "Configured awake-phase burst sampling rate.", bc.SamplingRate())
		obs.WriteGauge(w, "hotprefetch_burst_overall_rate", "Configured long-run sampling rate including hibernation.", bc.OverallRate())
	}
	obs.WriteCounter(w, "hotprefetch_grammar_resets_total", "Grammar budget cycles across shards.", st.Resets)
	obs.WriteCounter(w, "hotprefetch_cycles_analyzed_total", "Cycle-end analyses completed.", st.CyclesAnalyzed)
	obs.WriteCounter(w, "hotprefetch_analyses_failed_total", "Cycle-end analyses that panicked.", st.AnalysesFailed)
	obs.WriteCounter(w, "hotprefetch_analyses_skipped_total", "Cycles degraded to ingest-and-recycle by open breakers.", st.AnalysesSkipped)
	obs.WriteCounter(w, "hotprefetch_breaker_transitions_total", "Circuit-breaker state changes across shards.", st.BreakerTransitions)
	obs.WriteGauge(w, "hotprefetch_grammar_symbols", "Live grammar size summed across shards.", float64(st.GrammarSize))
	obs.WriteGauge(w, "hotprefetch_analysis_queue_depth", "Full grammars waiting for a background analysis worker.", float64(st.AnalysisQueueDepth))
	obs.WriteCounter(w, "hotprefetch_snapshot_writes_total", "Durable snapshots encoded.", st.SnapshotWrites)
	obs.WriteCounter(w, "hotprefetch_snapshot_restores_total", "Snapshots restored for warm start.", st.SnapshotRestores)
	obs.WriteCounter(w, "hotprefetch_snapshot_load_failures_total", "Snapshot loads rejected by the format validator.", st.SnapshotLoadFailures)
	obs.WriteGauge(w, "hotprefetch_restored_streams", "Warm-start streams currently merged into the banked set.", float64(st.RestoredStreams))
	obs.WriteCounter(w, "hotprefetch_matcher_observations_total", "References observed by the attached matcher.", st.MatcherObservations)
	obs.WriteCounter(w, "hotprefetch_matcher_swaps_total", "Matcher retraining swaps published.", st.MatcherSwaps)
	if sup := st.Supervisor; sup != nil {
		obs.WriteGauge(w, "hotprefetch_supervisor_accuracy", "Last conclusive accuracy window's hits/issued ratio.", sup.Accuracy)
		obs.WriteGauge(w, "hotprefetch_supervisor_windows_below_floor", "Current run of consecutive bad accuracy windows.", float64(sup.WindowsBelowFloor))
		obs.WriteCounter(w, "hotprefetch_supervisor_deoptimizations_total", "Transitions out of the optimized phase.", sup.Deoptimizations)
		obs.WriteCounter(w, "hotprefetch_supervisor_reoptimizations_total", "Transitions back into the optimized phase.", sup.Reoptimizations)
		obs.WriteCounter(w, "hotprefetch_prefetches_issued_total", "Prefetch addresses issued by the matcher.", sup.PrefetchesIssued)
		obs.WriteCounter(w, "hotprefetch_prefetches_hit_total", "Issued prefetch addresses subsequently referenced.", sup.PrefetchesHit)
	}
}

// MetricsHandler returns an http.Handler serving WriteMetrics — a
// dependency-free Prometheus scrape endpoint:
//
//	http.Handle("/metrics", sp.MetricsHandler())
func (sp *ShardedProfile) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		sp.WriteMetrics(w)
	})
}

// ExpvarVar adapts the profile's Stats to expvar.Var, for publication on the
// standard debug endpoint:
//
//	expvar.Publish("hotprefetch", sp.ExpvarVar())
func (sp *ShardedProfile) ExpvarVar() expvar.Var {
	return expvar.Func(func() any { return sp.Stats() })
}

// otherTenantLabel aggregates tenants beyond the MetricsTenants cardinality
// bound. "_other" is a legal tenant key, so to keep the aggregate honest a
// real tenant with that exact key is always folded into it rather than ever
// labeled individually.
const otherTenantLabel = "_other"

// WriteMetrics writes the service's metrics in Prometheus text exposition
// format: registry and ingest-endpoint counters, plus per-tenant series with
// bounded label cardinality — the busiest ServiceConfig.MetricsTenants
// tenants (by published references) get their own tenant="key" series, and
// every remaining tenant is folded into tenant="_other", so scrape size is
// bounded however many tenants churn through the registry.
func (svc *Service) WriteMetrics(w io.Writer) {
	obs.WriteGauge(w, "hotprefetch_service_tenants", "Registered tenants.", float64(svc.TenantCount()))
	obs.WriteCounter(w, "hotprefetch_service_evictions_total", "Tenants evicted from the registry.", svc.evictions.Load())
	obs.WriteCounter(w, "hotprefetch_service_publishes_total", "Publish requests accepted.", svc.publishes.Load())
	obs.WriteCounter(w, "hotprefetch_service_published_refs_total", "References accepted from publish bodies.", svc.publishedRefs.Load())
	obs.WriteCounter(w, "hotprefetch_service_decode_errors_total", "Publish bodies rejected by the wire-format decoder.", svc.decodeErrors.Load())
	obs.WriteCounter(w, "hotprefetch_service_rejected_total", "Publish requests rejected before decoding (bad tenant key).", svc.rejected.Load())
	obs.WriteCounter(w, "hotprefetch_service_snapshot_loads_total", "Tenant snapshots restored for warm start.", svc.snapLoads.Load())
	obs.WriteCounter(w, "hotprefetch_service_snapshot_load_failures_total", "Tenant snapshot loads rejected by the format validator.", svc.snapLoadFails.Load())
	obs.WriteCounter(w, "hotprefetch_service_snapshot_writes_total", "Tenant checkpoints written.", svc.snapWrites.Load())
	obs.WriteCounter(w, "hotprefetch_service_snapshot_write_errors_total", "Tenant checkpoints that failed to write.", svc.snapWriteErrs.Load())
	obs.WriteCounter(w, "hotprefetch_service_snapshot_refused_total", "Checkpoints refused over a newer-generation file.", svc.snapRefused.Load())

	tenants := svc.snapshotTenants()
	// Busiest tenants first; the tail shares the _other aggregate.
	sort.Slice(tenants, func(i, j int) bool {
		pi, pj := tenants[i].published.Load(), tenants[j].published.Load()
		if pi != pj {
			return pi > pj
		}
		return tenants[i].key < tenants[j].key
	})
	type counterSeries struct {
		name, help string
		value      func(Stats, *Tenant) uint64
	}
	counters := []counterSeries{
		{"hotprefetch_tenant_published_refs_total", "References accepted from this tenant's publish bodies.",
			func(_ Stats, t *Tenant) uint64 { return t.published.Load() }},
		{"hotprefetch_tenant_refs_pushed_total", "References accepted into the tenant's shard rings.",
			func(st Stats, _ *Tenant) uint64 { return st.Pushed }},
		{"hotprefetch_tenant_refs_consumed_total", "References compressed into the tenant's grammars.",
			func(st Stats, _ *Tenant) uint64 { return st.Consumed }},
		{"hotprefetch_tenant_refs_dropped_total", "References shed on the tenant's full rings.",
			func(st Stats, _ *Tenant) uint64 { return st.Dropped }},
		{"hotprefetch_tenant_refs_sampled_out_total", "References skipped by the tenant's sampling degradation.",
			func(st Stats, _ *Tenant) uint64 { return st.Sampled }},
		{"hotprefetch_tenant_burst_shed_total", "References shed by the tenant's bursty-sampling front end.",
			func(st Stats, _ *Tenant) uint64 { return st.BurstShed }},
		{"hotprefetch_tenant_quota_shed_total", "References shed by the tenant's reference quota.",
			func(st Stats, _ *Tenant) uint64 { return st.QuotaShed }},
		{"hotprefetch_tenant_grammar_resets_total", "Grammar budget cycles across the tenant's shards.",
			func(st Stats, _ *Tenant) uint64 { return st.Resets }},
		{"hotprefetch_tenant_prepass_collapsed_refs_total", "Consumed references absorbed by the tenant's ingest front end.",
			func(st Stats, _ *Tenant) uint64 { return st.Collapsed }},
		{"hotprefetch_tenant_snapshot_load_failures_total", "Snapshot loads into this tenant rejected by the format validator.",
			func(st Stats, _ *Tenant) uint64 { return st.SnapshotLoadFailures }},
	}
	stats := make([]Stats, len(tenants))
	for i, t := range tenants {
		stats[i] = t.sp.Stats()
	}
	labeled := svc.cfg.MetricsTenants
	label := func(i int, t *Tenant) string {
		if i < labeled && t.key != otherTenantLabel {
			return t.key
		}
		return otherTenantLabel
	}
	for _, cs := range counters {
		values := make(map[string]uint64, labeled+1)
		for i, t := range tenants {
			values[label(i, t)] += cs.value(stats[i], t)
		}
		obs.WriteCounterVec(w, cs.name, cs.help, "tenant", values)
	}
	grammar := make(map[string]float64, labeled+1)
	for i, t := range tenants {
		grammar[label(i, t)] += float64(stats[i].GrammarSize)
	}
	obs.WriteGaugeVec(w, "hotprefetch_tenant_grammar_symbols",
		"Live grammar size summed across the tenant's shards.", "tenant", grammar)
}

// MetricsHandler returns an http.Handler serving the service's WriteMetrics;
// Service.Handler mounts it at GET /metrics.
func (svc *Service) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		svc.WriteMetrics(w)
	})
}
