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
	// background analysis pool: one at most, since a shard hands a cycle to
	// the pool only while its spare is back, but for the instant between a
	// worker returning the spare and retiring its job. SpareMisses counts
	// pooled cycles that found the spare still out, because the shard's
	// previous analysis was queued or running, and so analyzed in place on
	// the goroutine draining the shard. Both are zero when cycling is
	// inline (AnalysisWorkers == 0).
	PendingAnalyses int64  `json:"pending_analyses"`
	SpareMisses     uint64 `json:"spare_misses"`

	// AnalysesFailed counts cycle-end analyses that panicked. At quiescence
	// Resets == CyclesAnalyzed + AnalysesFailed.
	AnalysesFailed uint64 `json:"analyses_failed"`
}

// Stats is a point-in-time snapshot of a ShardedProfile's service counters:
// per-shard ingestion accounting plus profile-wide totals and the
// observation count of an attached ConcurrentMatcher. The snapshot is
// approximate under concurrency (each counter is read atomically, but not
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

	// Pipeline counters (all zero when AnalysisWorkers == 0 and no budget
	// cycles have run): AnalysisQueueDepth is the number of full grammars
	// waiting for a background worker right now, at most one per shard;
	// CyclesAnalyzed counts cycle-end analyses completed (inline or
	// background).
	//
	// At every snapshot — not just at quiescence —
	// CyclesAnalyzed + AnalysesFailed <= Resets: a cycle's reset is counted
	// before its analysis can reach a terminal state, and the snapshot reads
	// the terminal counters before the resets, so the books can run behind
	// (cycles still in flight) but never ahead. At quiescence the two sides
	// are equal.
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

	// MaxCycleStall is the worst ingest stall charged to a grammar cycle on
	// any shard: IngestStall's Max. A handed-off cycle stalls for a grammar
	// swap, an in-place one for its whole analysis.
	MaxCycleStall time.Duration `json:"max_cycle_stall_ns"`

	// AnalysesFailed totals the cycle-end analyses that panicked, across
	// shards. AnalysesSkipped is always zero: no cycle skips its analysis.
	// It stays only because the perfbench harness still reads it.
	AnalysesFailed  uint64 `json:"analyses_failed"`
	AnalysesSkipped uint64 `json:"analyses_skipped"`

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
	// snapshot invariant CyclesAnalyzed + AnalysesFailed <= Resets holds at
	// every sample; see noteAnalysis for the writer side of the contract.
	st := Stats{
		Shards:          make([]ShardStats, len(sp.shards)),
		CyclesAnalyzed:  sp.obs.Count(obs.KindCycleAnalyzed),
		AnalysisLatency: sp.obs.AnalysisLatency.Snapshot(),
		IngestStall:     sp.obs.IngestStall.Snapshot(),
		FlushLatency:    sp.obs.FlushLatency.Snapshot(),
		AccuracyWindows: sp.obs.AccuracyWindow.Snapshot(),
		CompressLatency: sp.obs.CompressLatency.Snapshot(),
		BurstDuty:       sp.obs.BurstDuty.Snapshot(),
		PrepassCollapse: sp.obs.PrepassCollapse.Snapshot(),
	}
	st.MaxCycleStall = st.IngestStall.MaxDuration()
	if sp.analysisQ != nil {
		st.AnalysisQueueDepth = len(sp.analysisQ)
	}
	for i, s := range sp.shards {
		s.mu.Lock()
		retained := len(s.retained)
		s.mu.Unlock()
		// The failed count before resets, per the snapshot invariant's
		// read ordering.
		failed := s.analysesFailed.Load()
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
			AnalysesFailed:  failed,
			BurstShed:       s.burstShed.Load(),
			QuotaShed:       s.quotaShed.Load(),
			Collapsed:       s.collapsed.Load(),
			PrepassMinted:   s.minted.Load(),
		}
		if s.burst != nil {
			ss.BurstPhase = burst.Phase(s.burst.phase.Load()).String()
		}
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
