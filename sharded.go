package hotprefetch

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hotprefetch/internal/burst"
	"hotprefetch/internal/fault"
	"hotprefetch/internal/obs"
	"hotprefetch/internal/ring"
	"hotprefetch/internal/snapshot"
)

// ShardedProfile scales profile ingestion across concurrent producers: N
// independent Profile shards, each fed through its own single-producer
// single-consumer ring buffer by a dedicated consumer goroutine that sleeps
// while its ring is empty. Producers never contend on a lock or on each
// other's cache lines, so aggregate ingestion throughput grows with the
// shard count — the concurrency layer a multi-tenant profiling service needs
// on top of the paper's inherently sequential per-trace algorithms (§2.3
// profiles one program; a service profiles many).
//
// Each shard builds an independent Sequitur grammar over the subsequence it
// receives, so hot data streams are detected per shard and merged by heat.
// Route references so that one logical trace (one profiled program, tenant,
// or thread) always lands on the same shard: interleaving a single logical
// trace across shards splits its regularity and weakens detection. With one
// producer per logical trace and NumShards == 1 the result is identical to
// feeding a single Profile.
//
// The service-facing robustness knobs live in ShardedConfig: an ingestion
// policy for full-ring back-pressure (Block, Drop, Sample), a per-shard
// grammar memory budget with automatic phase cycling, and a Stats snapshot
// for monitoring.
//
// With AnalysisWorkers > 0, grammar-budget cycles are pipelined instead of
// inline: each shard owns two grammars, and a cycle whose spare is back
// swaps it in and hands the full one to a background analysis pool, so
// ingestion does not stall for the duration of a cycle-end analysis — the
// paper's requirement that analysis be cheap enough to run while the
// program executes (§2), turned into an off-the-ingest-path phase
// transition. A cycle that finds the spare still out analyzes in place, as
// an inline cycle does, so nothing on the ingest path waits for the pool.
type ShardedProfile struct {
	shards []*ProfileShard
	cfg    ShardedConfig
	closed atomic.Bool

	clk clock // the profile's one time source; see clock

	// inj, when non-nil, is consulted at the fault-injection points
	// (cycle-end analysis, producer ring pushes; see internal/fault).
	// In-package tests set it between newShardedProfile and start.
	inj fault.Injector

	// analysisQ feeds full profiles to the background analysis pool; nil
	// when AnalysisWorkers == 0 (inline cycling). It keeps one slot per
	// shard, and a shard has at most one grammar in it (see cycle), so no
	// send into it blocks.
	analysisQ   chan analysisJob
	workersDone sync.WaitGroup

	retired waitq // notified as each pooled analysis settles; drainAnalyses waits on it

	// quotaUsed counts references admitted against cfg.RefQuota across all
	// shards; producers reserve from it before touching any per-shard state,
	// so the quota is exact even with concurrent producers (the counter may
	// overshoot the quota, but every reference is admitted or shed exactly
	// once).
	quotaUsed atomic.Uint64

	matcher    atomic.Pointer[ConcurrentMatcher]
	supervisor atomic.Pointer[Supervisor]

	// The base set (see persist.go) is the evidence BankedStreams serves
	// beneath the shard banks. RestoreSnapshot fills it with a warm-start
	// set (baseRestored); a supervised retrain replaces it with its training
	// set and empties the banks it read (rebase). restoredGen and
	// restoredBaseline carry the last restored snapshot's generation and
	// accuracy counters for checkpointing and the warm start's reported
	// accuracy. Lock order: baseMu before any shard's mu.
	baseMu           sync.Mutex
	base             []Stream
	baseRestored     bool
	restoredGen      uint64
	restoredBaseline snapshot.Baseline

	// banked counts the cycle analyses whose streams have landed in a shard
	// bank, hot or not: the supervisor's readiness signal.
	banked atomic.Uint64

	// obs is the observability hub (never nil): phase events, latency
	// histograms, and the Prometheus exporter's source. Its per-kind event
	// counts are the profile's counts of completed analyses and snapshot
	// writes, restores and load failures. See Observer.
	obs *obs.Observer
}

// Observer returns the profile's observability hub: subscribe a Tracer for
// the phase-event timeline, or read the latency histograms directly. The
// same hub is what MetricsHandler exposes in Prometheus text format.
func (sp *ShardedProfile) Observer() *obs.Observer { return sp.obs }

// analysisJob is one detached full profile awaiting background analysis.
type analysisJob struct {
	shard *ProfileShard
	p     *Profile
}

// ProfileShard is one shard's producer handle. Each shard accepts references
// from at most one goroutine at a time (the single-producer half of the SPSC
// contract); distinct shards are fully independent.
type ProfileShard struct {
	q *ring.SPSC[Ref]

	// drain is the consumer side of the ring: whoever holds it pops
	// (PopBatch), compresses (apply) and cycles, and it guards p and
	// pooled. The shard's consumer takes it whenever the ring has
	// references; Flush takes it when it is free and drains on its own
	// goroutine. Nothing under drain waits on another goroutine: the
	// longest step is a cycle's in-place analysis (cycle). Flush only ever
	// TryLocks, so a holder stuck in its own analysis shows as a stall
	// rather than a hang.
	drain sync.Mutex
	p     *Profile
	// pooled is set while cycles may hand full grammars to the analysis
	// pool: from construction when the pool and a grammar budget are
	// configured until Close closes the pool, after which a drain cycles
	// inline.
	pooled bool

	// The consumer sleeps on work (references or Close), a Block producer
	// on room (a pop left the ring at most half full, or Close), and a
	// Flush that finds drain held on progress (every pop and every release
	// of drain).
	work, room, progress waitq

	sp  *ShardedProfile // owner; reaches the analysis pool and its stats
	idx int             // shard index, used by fault injection and errors

	policy     IngestPolicy
	sampleN    int
	maxSymbols int
	cycleCfg   AnalysisConfig

	// prepassOn mirrors ShardedConfig.prepass for the consumer's fast path:
	// when set, the shard's profiles run the two-level ingest front end and
	// the consumer tracks collapse deltas. collapsed and minted accumulate
	// across grammar cycles (the per-profile counters die with each cycle's
	// Reset); both are written under drain and read by Stats.
	prepassOn bool
	collapsed atomic.Uint64 // references absorbed by the front end
	minted    atomic.Uint64 // phrase/run rules minted by the front end

	// analysesFailed counts the cycles whose analysis panicked, so resets ==
	// completed + failed at quiescence.
	analysesFailed atomic.Uint64

	// spare double-buffers a pooled shard's grammar: it holds the shard's
	// second grammar, reset, whenever that grammar is neither queued nor in
	// a worker's hands. A cycle swaps it in, and the worker that analyzed
	// the full grammar returns it here.
	spare       chan *Profile
	pending     atomic.Int64  // analyses queued or running for this shard
	spareMisses atomic.Uint64 // pooled cycles that found the spare out

	closed     atomic.Bool
	pushed     atomic.Uint64 // references accepted by Add
	consumed   atomic.Uint64 // references applied to p
	dropped    atomic.Uint64 // references shed on a full ring (Drop/Sample)
	sampledOut atomic.Uint64 // references skipped by Sample degradation
	resets     atomic.Uint64 // grammar budget cycles completed

	grammarSize atomic.Uint64 // p's grammar size as of the last batch
	peakGrammar atomic.Uint64 // high-water mark of the grammar size

	// Producer-local Sample state: guarded by the single-producer contract,
	// never touched by the consumer.
	degraded bool
	skip     int

	// burst is the producer-local bursty-sampling front end
	// (ShardedConfig.Burst); nil when disabled. Like the Sample state it is
	// guarded by the single-producer contract. burstShed counts references
	// the front end shed without touching the ring.
	burst     *burstGate
	burstShed atomic.Uint64

	// quotaShed counts references shed at this shard's producer boundary
	// because the profile-wide RefQuota was exhausted.
	quotaShed atomic.Uint64

	// pubMu serializes PublishBatch producers on this shard: the SPSC
	// ring and the producer-local Sample/burst state admit one producer at
	// a time, and stream-hashed placement cannot guarantee two goroutines
	// never pick the same shard.
	pubMu sync.Mutex

	// retained is the shard's bank: the hot streams its grammar cycles
	// extracted since the last rebase (since the profile began, for an
	// unsupervised profile). While a retrain reads the bank (reading), the
	// cycles that bank meanwhile also merge into late, which is all the
	// bank keeps if that retrain publishes.
	mu       sync.Mutex // guards retained, reading and late
	retained []Stream
	reading  bool
	late     []Stream

	done chan struct{} // closed when the consumer exits
}

// NewShardedProfile returns a profile with n shards (n < 1 is treated as 1)
// using the default configuration: Block ingestion, no grammar budget. Call
// Close to stop the consumers when the profile is no longer needed.
func NewShardedProfile(n int) *ShardedProfile {
	sp, err := NewShardedProfileConfig(ShardedConfig{Shards: n})
	if err != nil {
		// The zero config is always valid; only Shards varies and it is
		// clamped.
		panic(err)
	}
	return sp
}

// NewShardedProfileConfig returns a profile configured by cfg, spawning one
// consumer goroutine per shard. Call Close to stop the consumers when the
// profile is no longer needed.
func NewShardedProfileConfig(cfg ShardedConfig) (*ShardedProfile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sp := newShardedProfile(cfg)
	sp.start()
	return sp, nil
}

// start spawns the analysis workers and the shard consumers.
func (sp *ShardedProfile) start() {
	for i := 0; i < sp.cfg.AnalysisWorkers; i++ {
		sp.workersDone.Add(1)
		go sp.analysisWorker()
	}
	for _, s := range sp.shards {
		go s.consume()
	}
}

// newShardedProfile builds the shard set without starting consumers; tests
// use it to exercise producer-side policies deterministically, or to set
// the clock or the fault injector before start.
func newShardedProfile(cfg ShardedConfig) *ShardedProfile {
	cfg = cfg.withDefaults()
	sp := &ShardedProfile{shards: make([]*ProfileShard, cfg.Shards), cfg: cfg, clk: realClock{}, obs: obs.New()}
	if cfg.AnalysisWorkers > 0 {
		sp.analysisQ = make(chan analysisJob, cfg.Shards)
	}
	for i := range sp.shards {
		s := &ProfileShard{
			q:          ring.New[Ref](ringCap),
			p:          sp.newProfile(),
			sp:         sp,
			idx:        i,
			policy:     cfg.Policy,
			sampleN:    cfg.SampleInterval,
			maxSymbols: cfg.MaxGrammarSymbols,
			cycleCfg:   cfg.cycleAnalysis,
			prepassOn:  cfg.prepass,
			done:       make(chan struct{}),
		}
		if cfg.Burst.Enabled {
			s.burst = &burstGate{ctl: burst.New(cfg.Burst.controllerConfig())}
		}
		if cfg.AnalysisWorkers > 0 && cfg.MaxGrammarSymbols > 0 {
			// The shard's second grammar, pre-warmed so the first phase
			// transition is a pure pointer swap.
			s.spare = make(chan *Profile, 1)
			s.spare <- sp.newProfile()
			s.pooled = true
		}
		sp.shards[i] = s
	}
	return sp
}

// newProfile builds one shard profile, with the ingest front end when the
// configuration asks for it (see ShardedConfig.prepass).
func (sp *ShardedProfile) newProfile() *Profile {
	if sp.cfg.prepass {
		return NewPrepassProfile()
	}
	return NewProfile()
}

// analysisWorker drains the analysis queue: each job is one shard's full,
// detached profile, run with panic isolation. Runs until the queue is
// closed; because a failing analysis completes its job (panic recovered and
// counted), a failing analysis path can never wedge the pool.
// Analysis workers and shard consumers run under runtime/pprof profiler
// labels so a CPU profile attributes time to the paper's phases directly:
// filter on hotprefetch_phase=analysis to see what cycle-end hot-stream
// extraction costs, ingest for Sequitur compression.
func (sp *ShardedProfile) analysisWorker() {
	defer sp.workersDone.Done()
	pprof.Do(context.Background(), pprof.Labels("hotprefetch_phase", "analysis"), func(context.Context) {
		for job := range sp.analysisQ {
			sp.runAnalysis(job)
		}
	})
}

// safeAnalyze runs one cycle-end hot-stream analysis on the calling
// goroutine with panic isolation and fault injection. ok is false when the
// analysis panicked: the panic unwinds past the return, and the recover
// contains it to this one analysis.
func (s *ProfileShard) safeAnalyze(p *Profile) (streams []Stream, ok bool) {
	defer func() { recover() }()
	if inj := s.sp.inj; inj != nil {
		f := inj.Analysis(s.idx)
		if f.Delay > 0 {
			slept := make(chan struct{})
			s.sp.clk.AfterFunc(f.Delay, func() { close(slept) })
			<-slept
		}
		if f.Panic {
			panic("fault: injected analysis panic")
		}
	}
	return p.HotStreams(s.cycleCfg), true
}

// runAnalysis executes one background analysis job end to end: the cycle's
// analysis (analyzeCycle), then the grammar's reset and return as the
// shard's spare, a send that cannot block because the spare is the one
// grammar the shard is not ingesting into. It always completes the job
// (pending is decremented on every path), which is the liveness contract
// drainAnalyses and Close rely on.
func (sp *ShardedProfile) runAnalysis(job analysisJob) {
	s := job.shard
	// Last on every path: drainAnalyses readers must see the retained
	// merge and the failure accounting.
	defer func() {
		s.pending.Add(-1)
		sp.retired.notify()
	}()
	s.analyzeCycle(job.p, sp.clk.Now())
	job.p.Reset()
	s.spare <- job.p
}

// analyzeCycle is the one cycle-end analysis path, inline and pooled: the
// analysis of p under recover (safeAnalyze) on the calling goroutine, then
// failure accounting or banking. A failed analysis costs only its own cycle:
// the next cycle analyzes afresh. start is when the cycle's analysis began,
// for the latency histogram. The caller resets or recycles p.
func (s *ProfileShard) analyzeCycle(p *Profile, start time.Time) {
	streams, ok := s.safeAnalyze(p)
	if !ok {
		s.analysesFailed.Add(1)
		s.sp.obs.Emit(obs.KindAnalysisFailed, s.idx, 0)
		return
	}
	s.sp.noteAnalysis(s, s.sp.clk.Now().Sub(start))
	s.bank(streams)
}

// bank merges one completed cycle's hot streams into the shard's bank, then
// counts the cycle as banked — also when it found nothing hot.
func (s *ProfileShard) bank(streams []Stream) {
	if len(streams) > 0 {
		s.mu.Lock()
		s.retained = mergeStreams([][]Stream{s.retained, streams}, s.cycleCfg.MaxStreams)
		if s.reading {
			s.late = mergeStreams([][]Stream{s.late, streams}, s.cycleCfg.MaxStreams)
		}
		s.mu.Unlock()
		s.sp.obs.Emit(obs.KindCycleBanked, s.idx, uint64(len(streams)))
	}
	s.sp.banked.Add(1)
}

// noteAnalysis records one completed cycle analysis: the latency histogram,
// and the phase event, whose count is Stats.CyclesAnalyzed.
//
// Counter-ordering contract (see Stats): a cycle's reset is counted before
// its analysis reaches a terminal state, and Stats reads the terminal
// counters before the resets, so every snapshot satisfies
// CyclesAnalyzed + AnalysesFailed <= Resets, with equality at quiescence.
func (sp *ShardedProfile) noteAnalysis(s *ProfileShard, d time.Duration) {
	sp.obs.AnalysisLatency.ObserveDuration(d)
	sp.obs.Emit(obs.KindCycleAnalyzed, s.idx, uint64(d))
}

// analysesDone totals the cycle analyses that have reached a terminal state
// (completed or failed) — the progress measure drainAnalyses watches.
func (sp *ShardedProfile) analysesDone() uint64 {
	return sp.obs.Count(obs.KindCycleAnalyzed) + sp.obs.Count(obs.KindAnalysisFailed)
}

// drainAnalyses blocks until no shard has a cycle analysis queued or
// running, so the retained sets are complete up to the analyses enqueued
// before the call. Failed analyses count as drained — the isolation
// contract is that every job terminates — but if the pool makes no progress
// for flushStallTimeout (e.g. a hung analysis), drainAnalyses gives up with
// an error wrapping ErrAnalysisStalled instead of waiting forever. It sleeps
// on retired between checks.
func (sp *ShardedProfile) drainAnalyses() error {
	if sp.analysisQ == nil {
		return nil
	}
	lastDone := sp.analysesDone()
	lastProgress := sp.clk.Now()
	for i, s := range sp.shards {
		for s.pending.Load() != 0 {
			if !sp.retired.wait(func() bool {
				return s.pending.Load() == 0 || sp.analysesDone() != lastDone
			}, sp.clk, lastProgress.Add(flushStallTimeout)) {
				return fmt.Errorf("hotprefetch: shard %d has %d cycle analyses pending with no pool progress for %v: %w",
					i, s.pending.Load(), flushStallTimeout, ErrAnalysisStalled)
			}
			if d := sp.analysesDone(); d != lastDone {
				lastDone, lastProgress = d, sp.clk.Now()
			}
		}
	}
	return nil
}

// consume drains the shard's ring into its Profile until stopped, under the
// ingest profiler labels. Compression that Flush runs on its caller carries
// the caller's labels instead.
func (s *ProfileShard) consume() {
	defer close(s.done)
	prepass := "off"
	if s.prepassOn {
		prepass = "on"
	}
	pprof.Do(context.Background(),
		pprof.Labels("hotprefetch_phase", "ingest", "hotprefetch_shard", strconv.Itoa(s.idx),
			"hotprefetch_prepass", prepass),
		func(context.Context) { s.consumeLoop() })
}

// consumeLoop drains the ring whenever it has references, and sleeps on
// work otherwise, so an idle shard costs no CPU. Once the profile closes it
// drains what raced in before the close and exits.
func (s *ProfileShard) consumeLoop() {
	for {
		closed := s.closed.Load()
		s.drain.Lock()
		s.drainTo(math.MaxUint64)
		s.unlockDrain()
		if closed {
			return
		}
		s.work.wait(func() bool { return s.q.Len() > 0 || s.closed.Load() }, nil, time.Time{})
	}
}

// drainBatch is how many references a drain pops and compresses at a time,
// on whichever goroutine drains, so the batches the prepass sees, and with
// them the grammar, do not depend on which goroutine drained.
const drainBatch = 256

// pop takes up to len(batch) references off the ring, under drain, and
// notifies progress, and room once the ring is at most half full: the drain
// pays a Block producer's wakeup per half ring, not per batch.
func (s *ProfileShard) pop(batch []Ref) int {
	n := s.q.PopBatch(batch)
	if n > 0 {
		s.progress.notify()
		if s.q.Len() <= s.q.Cap()/2 {
			s.room.notify()
		}
	}
	return n
}

// unlockDrain releases drain and notifies a Flush that found it held.
func (s *ProfileShard) unlockDrain() {
	s.drain.Unlock()
	s.progress.notify()
}

// drainTo is the one drain, under drain: it compresses references,
// drainBatch at a time, until the ring is empty or the shard has consumed
// target. The consumer drains with no target (math.MaxUint64), Flush up to
// its own.
func (s *ProfileShard) drainTo(target uint64) {
	var batch [drainBatch]Ref
	for {
		c := s.consumed.Load()
		if c >= target {
			return
		}
		n := s.pop(batch[:min(drainBatch, target-c)])
		if n == 0 {
			return
		}
		s.apply(batch[:n])
	}
}

// compressLatencyMinBatch gates per-batch CompressLatency observation:
// singleton batches compress in tens of nanoseconds, below the monotonic
// clock's useful resolution, and a pair of clock reads would roughly double
// their cost.
const compressLatencyMinBatch = 8

// addChunk feeds one chunk into the shard's current profile. With the
// prepass enabled it brackets the call with the profile's collapse counters
// so the shard-level totals survive grammar cycles (each cycle's Reset
// clears the per-profile counters).
func (s *ProfileShard) addChunk(chunk []Ref) {
	if !s.prepassOn {
		s.p.AddBatch(chunk)
		return
	}
	cb, mb := s.p.Collapsed(), s.p.MintedRules()
	s.p.AddBatch(chunk)
	s.collapsed.Add(s.p.Collapsed() - cb)
	s.minted.Add(s.p.MintedRules() - mb)
}

// apply compresses one popped batch into the shard's grammar, cycling at
// the grammar budget. Call under drain.
func (s *ProfileShard) apply(refs []Ref) {
	n := len(refs)
	observe := n >= compressLatencyMinBatch
	var start time.Time
	var collapsedStart uint64
	if observe {
		start = s.sp.clk.Now()
		if s.prepassOn {
			// s.collapsed is written only under drain, so this pre/post read
			// pair is exact for the batch even though Stats reads it
			// concurrently.
			collapsedStart = s.collapsed.Load()
		}
	}
	peak := int(s.peakGrammar.Load())
	if s.maxSymbols <= 0 {
		s.addChunk(refs)
		if sz := s.p.GrammarSize(); sz > peak {
			peak = sz
		}
	} else {
		// Grammar budget: feed the batch in budget-headroom chunks, cycling
		// between chunks (paper §5's cycle-end deallocation). One appended
		// reference grows the grammar by at most one net symbol, so a chunk
		// of (budget - size) references can reach the budget but never
		// overshoot it — the peak stays at or under MaxGrammarSymbols while
		// whole chunks flow through the batch-aware AppendRun path instead
		// of checking the ceiling per reference. Chunk boundaries depend
		// only on how the grammar grows over the reference sequence, never
		// on how the ring batched it, so cycle points stay deterministic.
		// With the prepass enabled a reference can mint a phrase or doubling
		// rule, growing the grammar by up to two net symbols, so the
		// headroom is halved (never below one reference per chunk).
		for len(refs) > 0 {
			sz := s.p.GrammarSize()
			if sz >= s.maxSymbols {
				if sz > peak {
					peak = sz
				}
				s.cycle()
				sz = s.p.GrammarSize()
			}
			k := s.maxSymbols - sz
			if s.prepassOn {
				if k /= 2; k < 1 {
					k = 1
				}
			}
			if k > len(refs) {
				k = len(refs)
			}
			s.addChunk(refs[:k])
			if sz := s.p.GrammarSize(); sz > peak {
				peak = sz
			}
			refs = refs[k:]
		}
	}
	s.grammarSize.Store(uint64(s.p.GrammarSize()))
	s.peakGrammar.Store(uint64(peak))
	s.consumed.Add(uint64(n))
	if observe {
		s.sp.obs.CompressLatency.ObserveDuration(s.sp.clk.Now().Sub(start))
		if s.prepassOn {
			s.sp.obs.PrepassCollapse.Observe(1000 * (s.collapsed.Load() - collapsedStart) / uint64(n))
		}
	}
}

// cycle ends the current profiling phase when the grammar hits its budget,
// on the goroutine that holds drain (which guards s.p), and records how long
// it blocked the ingest path in the IngestStall histogram. It never waits
// on another goroutine.
//
// Handed off (pooled, and the spare is back): swap the spare in and queue
// the full grammar for the background analysis pool — the ingest path
// stalls for a pointer exchange and a channel send, not for the analysis
// itself. The send cannot block: a pooled shard owns exactly two grammars,
// so while the spare is back neither is queued, and the queue keeps one
// slot per shard.
//
// In place (no pool, the pool closed, or the spare still out because the
// shard's previous analysis is queued or running): extract hot streams,
// bank them, and reset the grammar before returning, stalling ingestion
// for the whole analysis (the paper §5's cycle-end deallocation, run
// synchronously). With one worker, an in-place cycle can bank before the
// pooled cycle ahead of it; with more, pooled cycles already bank in
// completion order.
//
// Either way the shard's reset is counted before the cycle's analysis can
// reach a terminal state (analyzed or failed) — once the job is queued, a
// worker may finish it at any moment — so a Stats snapshot taken mid-cycle
// never sees the terminal counters ahead of Resets: the snapshot invariant
// documented on Stats.
func (s *ProfileShard) cycle() {
	start := s.sp.clk.Now()
	s.sp.obs.Emit(obs.KindCycleStart, s.idx, uint64(s.p.GrammarSize()))
	s.resets.Add(1)
	var next *Profile
	if s.pooled {
		select {
		case next = <-s.spare:
		default:
			s.spareMisses.Add(1)
		}
	}
	if next != nil {
		s.pending.Add(1)
		s.sp.analysisQ <- analysisJob{shard: s, p: s.p}
		s.p = next
	} else {
		s.analyzeCycle(s.p, start)
		s.p.Reset()
	}
	s.sp.obs.IngestStall.ObserveDuration(s.sp.clk.Now().Sub(start))
}

// tryPushBatch pushes a run of references, treating the ring as full when
// the fault injector simulates pressure, and notifies the consumer when
// any landed.
func (s *ProfileShard) tryPushBatch(refs []Ref) int {
	if inj := s.sp.inj; inj != nil && inj.RingFull(s.idx) {
		return 0
	}
	n := s.q.PushBatch(refs)
	if n > 0 {
		s.work.notify()
	}
	return n
}

// awaitRoom sleeps a refused Block producer only while its ring is really
// full, until it is half empty, so injected pressure retries at once and
// cannot strand it. It returns ErrClosed once the profile closes.
func (s *ProfileShard) awaitRoom() error {
	if s.q.Len() == s.q.Cap() {
		s.room.wait(func() bool { return s.q.Len() <= s.q.Cap()/2 || s.closed.Load() }, nil, time.Time{})
	}
	if s.closed.Load() {
		return ErrClosed
	}
	return nil
}

// retainedStreams returns the shard's bank. A bank is replaced, never
// modified in place, so the caller may read it without the lock.
func (s *ProfileShard) retainedStreams() []Stream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retained
}

// burstGate is a shard's producer-side bursty-sampling state: the paper's
// counter machine (internal/burst) plus per-phase accounting for the
// duty-cycle histogram. Owned by the producer goroutine under the
// single-producer contract; only the phase mirror is read by Stats.
type burstGate struct {
	ctl           *burst.Controller
	sampled       uint64       // references admitted during the current phase
	shed          uint64       // references shed during the current phase
	checksAtStart uint64       // ctl.Stats().Checks at phase entry
	phase         atomic.Int32 // mirrors ctl.Phase() for Stats readers
}

// burstPhaseEnd observes the ended phase's sampling duty, emits the phase
// event, and flips the controller between awake and hibernating — the
// self-clocked profile/hibernate alternation of the paper's Figure 3,
// driven entirely by reference arrival.
func (s *ProfileShard) burstPhaseEnd() {
	bg := s.burst
	if checks := bg.ctl.Stats().Checks - bg.checksAtStart; checks > 0 {
		s.sp.obs.BurstDuty.Observe(1000 * bg.sampled / checks)
	}
	if bg.ctl.Awake() {
		s.sp.obs.Emit(obs.KindBurstHibernate, s.idx, bg.sampled)
		bg.ctl.Hibernate()
	} else {
		s.sp.obs.Emit(obs.KindBurstAwake, s.idx, bg.shed)
		bg.ctl.Wake()
	}
	bg.phase.Store(int32(bg.ctl.Phase()))
	bg.sampled, bg.shed = 0, 0
	bg.checksAtStart = bg.ctl.Stats().Checks
}

// Add appends one data reference to the shard: AddBatch over a run of one.
// When the shard's ring is full the configured IngestPolicy decides whether
// Add waits (Block), sheds the reference (Drop), or degrades to sampled
// acceptance (Sample); shed references are counted in Stats, never silently
// lost from the books. With bursty sampling enabled (ShardedConfig.Burst),
// the reference first passes the burst controller, and the full-rate common
// case is one counter decrement with no ring traffic at all.
//
// Add returns ErrClosed once the profile has been closed — including for a
// Block Add asleep against a full ring when Close lands.
func (s *ProfileShard) Add(r Ref) error {
	one := [1]Ref{r}
	return s.AddBatch(one[:])
}

// AddAll appends each reference in order; it is AddBatch.
func (s *ProfileShard) AddAll(refs []Ref) error { return s.AddBatch(refs) }

// AddBatch appends a run of references in order, amortizing the ring's
// release fence and head refresh over the whole run (one tail store per
// PushBatch instead of one per reference). Block pushes every reference
// (returning ErrClosed if the profile closes mid-batch), Drop sheds whatever
// does not fit the ring, and Sample pushes like Drop until a reference does
// not fit, then admits reference by reference while degraded, because its
// degradation decisions are made per reference. With bursty sampling
// enabled the batch first runs through the burst controller: checking-phase
// spans are shed in one O(1) counter subtraction (burst.Controller.Skip),
// and only the sampled spans touch the ring.
func (s *ProfileShard) AddBatch(refs []Ref) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if len(refs) == 0 {
		return nil
	}
	if s.sp.cfg.RefQuota > 0 {
		if refs = s.admitQuota(refs); len(refs) == 0 {
			return nil
		}
	}
	if s.burst != nil {
		return s.addBatchBurst(refs)
	}
	return s.pushBatchPolicy(refs)
}

// admitQuota reserves the batch against the profile-wide reference quota and
// returns the admitted prefix; the shed suffix is counted in quotaShed. The
// reservation is a single atomic add, so concurrent producers on different
// shards split the remaining headroom exactly — never admitting more than
// RefQuota references in total.
func (s *ProfileShard) admitQuota(refs []Ref) []Ref {
	q := s.sp.cfg.RefQuota
	used := s.sp.quotaUsed.Add(uint64(len(refs)))
	if used <= q {
		return refs
	}
	over := used - q
	if over >= uint64(len(refs)) {
		s.quotaShed.Add(uint64(len(refs)))
		return nil
	}
	s.quotaShed.Add(over)
	return refs[:uint64(len(refs))-over]
}

// pushBatchPolicy routes a burst-admitted run of references through the
// shard's ingest policy; see AddBatch for the per-policy semantics.
func (s *ProfileShard) pushBatchPolicy(refs []Ref) error {
	switch s.policy {
	case Drop:
		n := s.tryPushBatch(refs)
		s.pushed.Add(uint64(n))
		if n < len(refs) {
			s.dropped.Add(uint64(len(refs) - n))
		}
	case Sample:
		// The first full-ring rejection degrades the shard to attempting
		// only every sampleN-th reference; it recovers once a push leaves
		// the ring at most half full. Exiting on the first successful push
		// would thrash between full speed and 1-in-N at the boundary. An
		// undegraded shard pushes the rest of its run at once, as Drop does;
		// the first reference that does not fit degrades it and is dropped.
		for i := 0; i < len(refs); i++ {
			if s.closed.Load() {
				return ErrClosed
			}
			if !s.degraded {
				n := s.tryPushBatch(refs[i:])
				s.pushed.Add(uint64(n))
				if i += n; i == len(refs) {
					return nil
				}
				s.degraded, s.skip = true, 0
				s.dropped.Add(1)
				continue
			}
			if s.skip++; s.skip < s.sampleN {
				s.sampledOut.Add(1)
				continue
			}
			s.skip = 0
			if s.tryPushBatch(refs[i:i+1]) == 0 {
				s.dropped.Add(1)
				continue
			}
			s.degraded = s.q.Len() > s.q.Cap()/2
			s.pushed.Add(1)
		}
	default: // Block
		pushed := 0
		for pushed < len(refs) {
			n := s.tryPushBatch(refs[pushed:])
			if n == 0 {
				if err := s.awaitRoom(); err != nil {
					s.pushed.Add(uint64(pushed))
					return err
				}
			}
			pushed += n
		}
		s.pushed.Add(uint64(pushed))
	}
	return nil
}

// addBatchBurst runs a batch through the bursty front end. Checking-phase
// spans — the overwhelming majority under the paper's parameters — are
// consumed by burst.Controller.Skip in one subtraction per span; the
// remaining references go through the controller one check at a time, and
// maximal admitted spans are pushed contiguously through the ingest policy
// so batch amortization survives sampling.
func (s *ProfileShard) addBatchBurst(refs []Ref) error {
	bg := s.burst
	i := 0
	spanStart := -1 // start of the current admitted span, -1 when none
	flush := func(end int) error {
		if spanStart < 0 {
			return nil
		}
		start := spanStart
		spanStart = -1
		return s.pushBatchPolicy(refs[start:end])
	}
	for i < len(refs) {
		// Skip only makes progress in checking code, which the controller
		// can only be in with no admitted span open (an admitted reference
		// leaves it in instrumented code), so there is nothing to flush.
		if k := bg.ctl.Skip(int64(len(refs) - i)); k > 0 {
			bg.shed += uint64(k)
			s.burstShed.Add(uint64(k))
			i += int(k)
			continue
		}
		instrumented, phaseEnded := bg.ctl.Check()
		if instrumented && bg.ctl.Awake() {
			bg.sampled++
			if spanStart < 0 {
				spanStart = i
			}
		} else {
			bg.shed++
			s.burstShed.Add(1)
			if err := flush(i); err != nil {
				return err
			}
		}
		if phaseEnded {
			// A phase always ends on a non-admitted check, so the span is
			// already flushed; account the phase before the next reference.
			s.burstPhaseEnd()
		}
		i++
	}
	return flush(len(refs))
}

// AddBatch appends a run of references to shard i; see ProfileShard.AddBatch.
func (sp *ShardedProfile) AddBatch(i int, refs []Ref) error {
	return sp.shards[i].AddBatch(refs)
}

// mix64 is the splitmix64 finalizer, used to spread stream identifiers over
// shards without clustering on sequential ids.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PublishBatch appends a run of references on behalf of the logical stream
// identified by stream: the batch lands whole on the shard the stream hashes
// to, and concurrent publishers are serialized by that shard's producer lock
// — the multi-producer entry point the networked service uses, where
// references arrive from arbitrary handler goroutines rather than one
// pinned producer per shard. A stable stream id keeps one remote client's
// whole trace on one shard, preserving the regularity Sequitur detects (see
// the ShardedProfile contract); distinct streams spread over shards.
//
// Do not mix PublishBatch with direct Shard(i) producers on the same
// profile: it serializes producers through a per-shard producer lock, which
// direct shard producers bypass.
func (sp *ShardedProfile) PublishBatch(stream uint64, refs []Ref) error {
	s := sp.shards[mix64(stream)%uint64(len(sp.shards))]
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	return s.AddBatch(refs)
}

// NumShards returns the number of shards.
func (sp *ShardedProfile) NumShards() int { return len(sp.shards) }

// Shard returns producer handle i (0 <= i < NumShards).
func (sp *ShardedProfile) Shard(i int) *ProfileShard { return sp.shards[i] }

// Flush blocks until every reference the shards had accepted at the moment
// Flush was called has been compressed into its shard's grammar, then
// returns nil. References accepted while Flush runs may or may not be
// included — the quiescence contract: only a moment with no active
// producers gives a complete cut. Because the target is snapshotted up
// front, concurrent producers keeping the rings full can no longer livelock
// Flush.
//
// Whenever a shard's drain lock is free, Flush takes it and drains up to its
// target on the calling goroutine, so it needs no running consumer and
// never waits for one to run; nor does it wait for the analysis pool,
// because no cycle does (a cycle whose spare is out analyzes in place, on
// whichever goroutine drains). While another goroutine holds the lock,
// Flush sleeps until that holder makes progress. If it makes none toward
// the target for flushStallTimeout — a holder stuck in its own cycle
// analysis — Flush gives up with an error wrapping ErrFlushStalled instead
// of waiting forever.
func (sp *ShardedProfile) Flush() error {
	start := sp.clk.Now()
	defer func() { sp.obs.FlushLatency.ObserveDuration(sp.clk.Now().Sub(start)) }()
	for i, s := range sp.shards {
		target := s.pushed.Load()
		last, lastProgress := s.consumed.Load(), sp.clk.Now()
		for last < target {
			held := false
			if !s.progress.wait(func() bool {
				held = s.drain.TryLock()
				return held || s.consumed.Load() != last
			}, sp.clk, lastProgress.Add(flushStallTimeout)) {
				return fmt.Errorf("shard %d drain stalled at %d/%d references for %v "+
					"(quiescence contract: Flush only completes the references accepted "+
					"before it was called; the shard's drain holder, stuck in its own "+
					"cycle analysis, made no progress): %w",
					i, last, target, flushStallTimeout, ErrFlushStalled)
			}
			if held {
				s.drainTo(target)
				s.unlockDrain()
			}
			if c := s.consumed.Load(); c != last {
				last, lastProgress = c, sp.clk.Now()
			}
		}
	}
	return nil
}

// Close stops the consumer goroutines after draining in-flight references.
// The profile remains readable (HotStreams, BankedStreams, Stats) but Add
// returns ErrClosed afterwards. Close is idempotent.
func (sp *ShardedProfile) Close() {
	if !sp.closed.CompareAndSwap(false, true) {
		return
	}
	// Close each shard: its consumer drains and exits, and a Block producer
	// asleep against its full ring returns ErrClosed.
	for _, s := range sp.shards {
		s.closed.Store(true)
		s.work.notify()
		s.room.notify()
	}
	for _, s := range sp.shards {
		<-s.done
	}
	// Consumers are joined; close the analysis queue and wait for the pool
	// to finish banking in-flight cycles. Readers after Close see complete
	// retained sets. A Flush may still drain what a producer racing Close
	// pushed, so each shard first switches to inline cycles, under its
	// drain lock.
	if sp.analysisQ != nil {
		for _, s := range sp.shards {
			s.drain.Lock()
			s.pooled = false
			s.unlockDrain()
		}
		close(sp.analysisQ)
		sp.workersDone.Wait()
	}
}

// HotStreams flushes all shards, extracts each shard's hot data streams
// in parallel, and merges them — together with the streams the shard banks
// hold (every grammar budget cycle's, unless a supervised retrain has
// rebased the profile since; the base set is not included) — deduplicating
// identical streams with their heats summed (frequency adds across shards
// and cycles, and heat = length × frequency), re-ranked hottest first and
// capped at cfg.MaxStreams.
//
// cfg's coverage threshold applies per shard (each shard knows only its own
// trace length), so with N > 1 a stream must be hot within at least one
// shard to be found — route whole logical traces to single shards to keep
// this faithful. Producers should be quiescent, as for Flush.
//
// If a shard's drain stalls (ErrFlushStalled) or the background analysis
// pool stops progressing (ErrAnalysisStalled), HotStreams still merges and
// returns what it can see, together with the non-nil error — a partial
// merge is never silently presented as complete.
func (sp *ShardedProfile) HotStreams(cfg AnalysisConfig) ([]Stream, error) {
	err := sp.Flush()
	// Pipelined cycling: Flush only guarantees the references were consumed;
	// the cycles they triggered may still be in the analysis pool. Wait for
	// those to land in the retained sets before merging.
	if derr := sp.drainAnalyses(); derr != nil && err == nil {
		err = derr
	}
	n := len(sp.shards)
	perShard := make([][]Stream, 2*n)
	var wg sync.WaitGroup
	for i, s := range sp.shards {
		perShard[n+i] = s.retainedStreams()
		wg.Add(1)
		go func(i int, s *ProfileShard) {
			defer wg.Done()
			perShard[i] = s.p.HotStreams(cfg)
		}(i, s)
	}
	wg.Wait()
	return mergeStreams(perShard, cfg.MaxStreams), err
}

// BankedStreams merges the base set with the streams every shard banked
// since, capped at maxStreams (<= 0 for the analysis default), without
// touching the live grammars. The base set is what RestoreSnapshot loaded
// or, once a Supervisor has (re)optimized, the set its published matcher
// trained on; an unsupervised, unrestored profile has none, so there
// BankedStreams is every grammar-budget cycle's streams. Unlike HotStreams —
// whose live-grammar analysis requires producer quiescence — BankedStreams
// reads the base and each shard's bank under their locks and is safe while
// producers and consumers are running; it is what /hotstreams and
// WriteSnapshot serve. Cycles whose background analysis has not landed yet
// are simply not visible; callers needing a complete cut use HotStreams at
// quiescence instead.
// The base set participates in the merge like one more shard's bank —
// sorted and duplicate-free, so a restore followed by a snapshot of an
// otherwise idle profile round-trips the stream set bit-identically. Banked
// evidence for the same stream sums its heat with the base copy.
func (sp *ShardedProfile) BankedStreams(maxStreams int) []Stream {
	perShard := make([][]Stream, 0, len(sp.shards)+1)
	// Hold the base lock across the banks so a concurrent rebase is seen
	// whole: never its new base together with the banks it empties.
	sp.baseMu.Lock()
	if len(sp.base) > 0 {
		perShard = append(perShard, sp.base)
	}
	for _, s := range sp.shards {
		perShard = append(perShard, s.retainedStreams())
	}
	sp.baseMu.Unlock()
	return mergeStreams(perShard, maxStreams)
}

// rebase runs one retrain on the streams banked since the base set was
// installed. publish receives their merge, capped at maxStreams; when it
// returns nil, the merge becomes the base set and each shard bank keeps
// only the cycles that banked while publish ran — the next retrain's
// evidence. A failed publish leaves the base and the banks as they were,
// and an empty merge is not published at all. rebase returns the merge.
//
// Only a Supervisor rebases, one retrain at a time; a profile nobody
// supervises keeps every cycle in its banks.
func (sp *ShardedProfile) rebase(maxStreams int, publish func([]Stream) error) ([]Stream, error) {
	perShard := make([][]Stream, len(sp.shards))
	for i, s := range sp.shards {
		s.mu.Lock()
		perShard[i] = s.retained
		s.reading, s.late = true, nil
		s.mu.Unlock()
	}
	streams := mergeStreams(perShard, maxStreams)
	var err error
	if len(streams) > 0 {
		err = publish(streams)
	}
	published := len(streams) > 0 && err == nil
	sp.baseMu.Lock()
	for _, s := range sp.shards {
		s.mu.Lock()
		if published {
			s.retained = s.late
		}
		s.reading, s.late = false, nil
		s.mu.Unlock()
	}
	if published {
		sp.base, sp.baseRestored = streams, false
	}
	sp.baseMu.Unlock()
	return streams, err
}

// streamKey appends a collision-safe binary key for st to buf: the reference
// count followed by fixed-width PC/Addr words. Unlike a formatted-string
// key, no choice of separator can collide two distinct streams, and the
// fixed-width encoding costs no formatting allocations.
func streamKey(buf []byte, st Stream) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(st.Refs)))
	for _, r := range st.Refs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.PC))
		buf = binary.LittleEndian.AppendUint64(buf, r.Addr)
	}
	return buf
}

// mergeStreams deduplicates identical streams across shards (summing heat)
// and returns them hottest first, preserving shard-extraction order among
// equal heats, capped at maxStreams (0 = no cap).
func mergeStreams(perShard [][]Stream, maxStreams int) []Stream {
	var (
		out  []Stream
		key  []byte
		seen = map[string]int{} // stream key -> index in out
	)
	for _, streams := range perShard {
		for _, st := range streams {
			key = streamKey(key[:0], st)
			if i, ok := seen[string(key)]; ok {
				out[i].Heat += st.Heat
				continue
			}
			seen[string(key)] = len(out)
			out = append(out, st)
		}
	}
	slices.SortStableFunc(out, func(a, b Stream) int { return cmp.Compare(b.Heat, a.Heat) })
	if maxStreams > 0 && len(out) > maxStreams {
		// Clear the cut tail so the backing array the caller keeps does not
		// pin the dropped streams' references.
		clear(out[maxStreams:])
		out = out[:maxStreams]
	}
	return out
}
