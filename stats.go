package hotprefetch

import (
	"encoding/json"
	"time"

	"hotprefetch/internal/burst"
	"hotprefetch/internal/obs"
)

// ShardStats is one shard's ingestion and memory counters at a moment in
// time.
type ShardStats struct {
	// Pushed counts references accepted into the shard's ring; Consumed
	// counts those compressed into the grammar so far. Pushed - Consumed is
	// the in-flight backlog.
	Pushed   uint64 `json:"pushed"`
	Consumed uint64 `json:"consumed"`

	// Dropped counts references shed on a full ring (Drop and Sample
	// policies); Sampled counts references skipped by Sample degradation
	// without touching the ring.
	Dropped uint64 `json:"dropped"`
	Sampled uint64 `json:"sampled"`

	// BurstShed counts references shed by the bursty-sampling front end
	// (ShardedConfig.Burst) before reaching the ring; BurstPhase is the
	// front end's current phase ("awake" or "hibernating"), empty when
	// bursty sampling is disabled. QuotaShed counts references shed at the
	// producer boundary because the profile-wide RefQuota was exhausted. At
	// producer quiescence every reference handed to the shard is in exactly
	// one of Pushed, Dropped, Sampled, BurstShed, or QuotaShed.
	BurstShed  uint64 `json:"burst_shed"`
	BurstPhase string `json:"burst_phase,omitempty"`
	QuotaShed  uint64 `json:"quota_shed"`

	// Collapsed counts consumed references the two-level ingest front end
	// (on for every Service tenant) absorbed without a digram-table epoch — run
	// collapses plus phrase-rule replays. Unlike the shed counters it is
	// consumer-side accounting over references already in Consumed (always
	// Collapsed <= Consumed), so it does not enter the producer ledger.
	// PrepassMinted counts the phrase and doubling rules the front end
	// minted directly into shard grammars. Both are zero with the prepass
	// off.
	Collapsed     uint64 `json:"collapsed"`
	PrepassMinted uint64 `json:"prepass_minted"`

	// Resets counts grammar budget cycles (MaxGrammarSymbols); Retained is
	// the number of hot streams those cycles banked in this shard since the
	// profile's base set was last installed (see BankedStreams).
	Resets   uint64 `json:"resets"`
	Retained int    `json:"retained"`

	// GrammarSize is the shard grammar's size as of its last consumed
	// batch; PeakGrammarSize is its high-water mark, which stays at or
	// under MaxGrammarSymbols when a budget is set.
	GrammarSize     int `json:"grammar_size"`
	PeakGrammarSize int `json:"peak_grammar_size"`

	// RingLen and RingCap describe the shard ring's current backlog and
	// capacity.
	RingLen int `json:"ring_len"`
	RingCap int `json:"ring_cap"`

	// PendingAnalyses counts this shard's cycles queued or running in the
	// background analysis pool; SpareMisses counts cycles that had to
	// allocate a fresh grammar because both spares were still being
	// recycled. Zero when cycling is inline (AnalysisWorkers == 0).
	PendingAnalyses int64  `json:"pending_analyses"`
	SpareMisses     uint64 `json:"spare_misses"`

	// MaxCycleStall is the longest a grammar-budget cycle has blocked this
	// shard's ingest path: the whole analysis when cycling inline, just the
	// grammar swap when pipelined.
	MaxCycleStall time.Duration `json:"max_cycle_stall_ns"`

	// AnalysesFailed counts cycle-end analyses that panicked;
	// AnalysesSkipped counts cycles degraded to ingest-and-recycle by an
	// open circuit breaker. At quiescence
	// Resets == CyclesAnalyzed + AnalysesFailed + AnalysesSkipped.
	AnalysesFailed  uint64 `json:"analyses_failed"`
	AnalysesSkipped uint64 `json:"analyses_skipped"`

	// BreakerState is the shard's circuit-breaker state ("closed", "open",
	// or "half-open"); BreakerTransitions counts its state changes.
	BreakerState       string `json:"breaker_state"`
	BreakerTransitions uint64 `json:"breaker_transitions"`
}

// Stats is a point-in-time snapshot of a ShardedProfile's service counters:
// per-shard ingestion accounting plus profile-wide totals, merge timings,
// and the observation count of an attached ConcurrentMatcher. The snapshot
// is approximate under concurrency (each counter is read atomically, but not
// all at the same instant).
//
// Stats marshals to JSON and its String method returns that JSON, so a
// ShardedProfile drops straight into an expvar page:
//
//	expvar.Publish("hotprefetch", expvar.Func(func() any { return sp.Stats() }))
type Stats struct {
	Shards []ShardStats `json:"shards"`

	// Totals across shards.
	Pushed        uint64 `json:"pushed"`
	Consumed      uint64 `json:"consumed"`
	Dropped       uint64 `json:"dropped"`
	Sampled       uint64 `json:"sampled"`
	BurstShed     uint64 `json:"burst_shed"`
	QuotaShed     uint64 `json:"quota_shed"`
	Collapsed     uint64 `json:"collapsed"`
	PrepassMinted uint64 `json:"prepass_minted"`
	Resets        uint64 `json:"resets"`

	// GrammarSize sums the live per-shard grammar sizes.
	GrammarSize int `json:"grammar_size"`

	// MergeCount and MergeTime account the HotStreams merge passes run so
	// far and the cumulative wall time they took.
	MergeCount uint64        `json:"merge_count"`
	MergeTime  time.Duration `json:"merge_time_ns"`

	// Pipeline counters (all zero when AnalysisWorkers == 0 and no budget
	// cycles have run): AnalysisQueueDepth is the number of full grammars
	// waiting for a background worker right now; CyclesAnalyzed counts
	// cycle-end analyses completed (inline or background).
	//
	// At every snapshot — not just at quiescence —
	// CyclesAnalyzed + AnalysesFailed + AnalysesSkipped <= Resets: a
	// cycle's reset is counted before its analysis can reach a terminal
	// state, and the snapshot reads the terminal counters before the
	// resets, so the books can run behind (cycles still in flight) but
	// never ahead. At quiescence the two sides are equal.
	AnalysisQueueDepth int    `json:"analysis_queue_depth"`
	CyclesAnalyzed     uint64 `json:"cycles_analyzed"`

	// Latency distributions, replacing the lossy last/max scalar pair the
	// snapshot used to carry (the old values survive as the snapshots' Last
	// and Max fields): per-cycle analysis latency, the ingest-path stall
	// each grammar cycle charged, and Flush wall time. Raw units are
	// nanoseconds; see obs.HistogramSnapshot.
	AnalysisLatency HistogramSnapshot `json:"analysis_latency"`
	IngestStall     HistogramSnapshot `json:"ingest_stall"`
	FlushLatency    HistogramSnapshot `json:"flush_latency"`

	// AccuracyWindows is the distribution of supervisor accuracy-window
	// hit ratios (raw unit permille); all-zero until a Supervisor judges
	// its first conclusive window.
	AccuracyWindows HistogramSnapshot `json:"accuracy_windows"`

	// CompressLatency is the per-batch Sequitur compression wall time
	// (batches of 8+ references); BurstDuty is the per-phase bursty-sampling
	// duty cycle, references sampled over references checked (raw unit
	// permille), all-zero unless ShardedConfig.Burst is enabled.
	CompressLatency HistogramSnapshot `json:"compress_latency"`
	BurstDuty       HistogramSnapshot `json:"burst_duty"`

	// PrepassCollapse is the distribution of per-batch collapse ratios —
	// references the ingest front end absorbed over references in the batch
	// (raw unit permille, batches of 8+ references); all-zero unless the
	// front end is on, as it is for every Service tenant.
	PrepassCollapse HistogramSnapshot `json:"prepass_collapse"`

	// MaxCycleStall is the worst per-shard ingest stall charged to a grammar
	// cycle (max over shards of ShardStats.MaxCycleStall).
	MaxCycleStall time.Duration `json:"max_cycle_stall_ns"`

	// Failure-containment totals across shards: analyses failed (panicked),
	// analyses skipped by open breakers, and breaker state transitions.
	AnalysesFailed     uint64 `json:"analyses_failed"`
	AnalysesSkipped    uint64 `json:"analyses_skipped"`
	BreakerTransitions uint64 `json:"breaker_transitions"`

	// MatcherObservations is the number of references observed by the
	// ConcurrentMatcher registered with AttachMatcher, if any;
	// MatcherSwaps counts its retraining swaps, and MatcherPredictor names
	// the predictor implementation it publishes.
	MatcherObservations uint64 `json:"matcher_observations"`
	MatcherSwaps        uint64 `json:"matcher_swaps"`
	MatcherPredictor    string `json:"matcher_predictor,omitempty"`

	// Snapshot lifecycle counters (see WriteSnapshot / RestoreSnapshot):
	// RestoredStreams is the size of the warm-start stream set currently
	// merged into BankedStreams as the base set (0 when cold or once a
	// supervised retrain has replaced it with its training set);
	// SnapshotGeneration is the generation of the last restored snapshot.
	// SnapshotWrites counts successful encodes, SnapshotRestores successful
	// loads, and SnapshotLoadFailures loads rejected by the format
	// validator.
	RestoredStreams      int    `json:"restored_streams"`
	SnapshotGeneration   uint64 `json:"snapshot_generation"`
	SnapshotWrites       uint64 `json:"snapshot_writes"`
	SnapshotRestores     uint64 `json:"snapshot_restores"`
	SnapshotLoadFailures uint64 `json:"snapshot_load_failures"`

	// Supervisor is the supervision snapshot when a Supervisor is attached
	// (see Supervise): phase-cycle state, last accuracy window, and the
	// deoptimize/re-optimize counts.
	Supervisor *SupervisorStats `json:"supervisor,omitempty"`
}

// String renders the snapshot as JSON, satisfying expvar.Var.
func (st Stats) String() string {
	b, err := json.Marshal(st)
	if err != nil {
		// Stats contains only marshalable fields; this cannot happen.
		return "{}"
	}
	return string(b)
}

// Stats returns a snapshot of the profile's service counters. It does not
// flush: the snapshot reflects ingestion as it stands, backlog included.
func (sp *ShardedProfile) Stats() Stats {
	// CyclesAnalyzed must be read before any shard's resets counter so the
	// snapshot invariant CyclesAnalyzed + AnalysesFailed + AnalysesSkipped
	// <= Resets holds at every sample; see noteAnalysis for the writer side
	// of the contract.
	st := Stats{
		Shards:          make([]ShardStats, len(sp.shards)),
		MergeCount:      sp.mergeCount.Load(),
		MergeTime:       time.Duration(sp.mergeNanos.Load()),
		CyclesAnalyzed:  sp.obs.Count(obs.KindCycleAnalyzed),
		AnalysisLatency: sp.obs.AnalysisLatency.Snapshot(),
		IngestStall:     sp.obs.IngestStall.Snapshot(),
		FlushLatency:    sp.obs.FlushLatency.Snapshot(),
		AccuracyWindows: sp.obs.AccuracyWindow.Snapshot(),
		CompressLatency: sp.obs.CompressLatency.Snapshot(),
		BurstDuty:       sp.obs.BurstDuty.Snapshot(),
		PrepassCollapse: sp.obs.PrepassCollapse.Snapshot(),
	}
	if sp.analysisQ != nil {
		st.AnalysisQueueDepth = len(sp.analysisQ)
	}
	for i, s := range sp.shards {
		s.mu.Lock()
		retained := len(s.retained)
		s.mu.Unlock()
		// Terminal analysis counters before resets, per the snapshot
		// invariant's read ordering.
		failed, skipped := s.analysesFailed.Load(), s.analysesSkipped.Load()
		ss := ShardStats{
			Pushed:          s.pushed.Load(),
			Consumed:        s.consumed.Load(),
			Dropped:         s.dropped.Load(),
			Sampled:         s.sampledOut.Load(),
			Resets:          s.resets.Load(),
			Retained:        retained,
			GrammarSize:     int(s.grammarSize.Load()),
			PeakGrammarSize: int(s.peakGrammar.Load()),
			RingLen:         s.q.Len(),
			RingCap:         s.q.Cap(),
			PendingAnalyses: s.pending.Load(),
			SpareMisses:     s.spareMisses.Load(),
			MaxCycleStall:   time.Duration(s.maxCycleStallNanos.Load()),
			AnalysesFailed:  failed,
			AnalysesSkipped: skipped,
			BurstShed:       s.burstShed.Load(),
			QuotaShed:       s.quotaShed.Load(),
			Collapsed:       s.collapsed.Load(),
			PrepassMinted:   s.minted.Load(),
		}
		if s.burst != nil {
			ss.BurstPhase = burst.Phase(s.burst.phase.Load()).String()
		}
		ss.BreakerState, ss.BreakerTransitions = s.brk.snapshot()
		st.Shards[i] = ss
		st.Pushed += ss.Pushed
		st.Consumed += ss.Consumed
		st.Dropped += ss.Dropped
		st.Sampled += ss.Sampled
		st.BurstShed += ss.BurstShed
		st.QuotaShed += ss.QuotaShed
		st.Collapsed += ss.Collapsed
		st.PrepassMinted += ss.PrepassMinted
		st.Resets += ss.Resets
		st.GrammarSize += ss.GrammarSize
		st.AnalysesFailed += ss.AnalysesFailed
		st.AnalysesSkipped += ss.AnalysesSkipped
		st.BreakerTransitions += ss.BreakerTransitions
		if ss.MaxCycleStall > st.MaxCycleStall {
			st.MaxCycleStall = ss.MaxCycleStall
		}
	}
	sp.baseMu.Lock()
	if sp.baseRestored {
		st.RestoredStreams = len(sp.base)
	}
	st.SnapshotGeneration = sp.restoredGen
	sp.baseMu.Unlock()
	st.SnapshotWrites = sp.obs.Count(obs.KindSnapshotWritten)
	st.SnapshotRestores = sp.obs.Count(obs.KindSnapshotRestored)
	st.SnapshotLoadFailures = sp.obs.Count(obs.KindSnapshotLoadFailed)
	if m := sp.matcher.Load(); m != nil {
		st.MatcherObservations = m.Observations()
		st.MatcherSwaps = m.Swaps()
		st.MatcherPredictor = m.Predictor()
	}
	if sup := sp.supervisor.Load(); sup != nil {
		ss := sup.Snapshot()
		st.Supervisor = &ss
	}
	return st
}

// AttachMatcher registers the ConcurrentMatcher whose observation count
// Stats should report — typically the matcher serving the streams this
// profile detected. Attaching also points the matcher's event emission at
// this profile's Observer, so its retraining swaps land in the same trace
// as the cycles that produced them. A nil matcher detaches.
func (sp *ShardedProfile) AttachMatcher(m *ConcurrentMatcher) {
	if m != nil {
		m.SetObserver(sp.obs)
	}
	sp.matcher.Store(m)
}
