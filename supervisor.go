package hotprefetch

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hotprefetch/internal/fault"
	"hotprefetch/internal/obs"
)

// SupervisorState is one phase of the supervised runtime's cycle — the
// paper's §5 profile → optimize → hibernate loop as a first-class state
// machine.
type SupervisorState int32

const (
	// StateProfiling: no optimization installed yet; the profile is
	// accumulating evidence and the supervisor is waiting for enough banked
	// cycles to build the first matcher.
	StateProfiling SupervisorState = iota

	// StateOptimized: a matcher trained on detected hot streams is
	// installed and the supervisor is sampling its accuracy every window.
	StateOptimized

	// StateHibernating: the supervisor deoptimized — a pass-through matcher
	// is installed (no prefetches, no detection cost) while the
	// profile re-accumulates fresh cycles; once one has banked the
	// supervisor re-optimizes and returns to StateOptimized.
	StateHibernating
)

// String returns the state name used in Stats.
func (s SupervisorState) String() string {
	switch s {
	case StateOptimized:
		return "optimized"
	case StateHibernating:
		return "hibernating"
	default:
		return "profiling"
	}
}

// SupervisorConfig tunes the accuracy-driven deoptimization loop. The zero
// value is usable: a 25% accuracy floor and three bad windows to
// deoptimize. What the supervisor builds is fixed by its inputs: the
// matcher's head length and the profile's cycle analysis
// (DefaultAnalysisConfig).
type SupervisorConfig struct {
	// AccuracyFloor is the sliding-window prefetch accuracy (hits/issued)
	// below which a window counts as bad. Zero means 0.25.
	AccuracyFloor float64

	// BadWindows is the number of consecutive bad windows that trigger
	// deoptimization. Zero means 3.
	BadWindows int
}

// minWindowObservations is the number of matcher observations a window must
// contain to be judged at all. A poll that finds fewer leaves the bad-window
// count unchanged and keeps the window open: its observations carry into the
// next poll's window, so a supervisor polled faster than this still judges
// one window per this many observations.
const minWindowObservations = 256

// withDefaults returns the configuration with zero fields replaced.
func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.AccuracyFloor == 0 {
		c.AccuracyFloor = 0.25
	}
	if c.BadWindows == 0 {
		c.BadWindows = 3
	}
	return c
}

// Validate reports whether the configuration is well-formed.
func (c SupervisorConfig) Validate() error {
	if c.AccuracyFloor < 0 || c.AccuracyFloor > 1 {
		return fmt.Errorf("hotprefetch: supervisor AccuracyFloor %g outside [0, 1]", c.AccuracyFloor)
	}
	if c.BadWindows < 0 {
		return fmt.Errorf("hotprefetch: negative supervisor BadWindows %d", c.BadWindows)
	}
	return nil
}

// SupervisorStats is the supervision slice of a Stats snapshot.
type SupervisorStats struct {
	// State is the current phase ("profiling", "optimized", "hibernating").
	State string `json:"state"`

	// Accuracy is the last conclusive window's hits/issued ratio (0 when
	// no window has concluded yet or the matcher issued nothing).
	Accuracy float64 `json:"accuracy"`

	// WindowsBelowFloor is the current run of consecutive bad windows.
	WindowsBelowFloor int `json:"windows_below_floor"`

	// Deoptimizations and Reoptimizations count the supervisor's state
	// transitions out of and back into StateOptimized.
	Deoptimizations uint64 `json:"deoptimizations"`
	Reoptimizations uint64 `json:"reoptimizations"`

	// PrefetchesIssued and PrefetchesHit are the matcher's cumulative
	// accuracy counters (across swaps).
	PrefetchesIssued uint64 `json:"prefetches_issued"`
	PrefetchesHit    uint64 `json:"prefetches_hit"`

	// PollErrors counts the errors Poll returned: a retrain or teardown
	// whose matcher build returned an error or panicked.
	PollErrors uint64 `json:"poll_errors"`
}

// Supervisor closes the paper's control loop over a profiling service and
// its matcher: it measures the installed optimization's prefetch accuracy
// in sliding windows and revokes it when it decays — deoptimizing to a
// pass-through matcher, letting the profile re-accumulate, and retraining
// from fresh cycles — with no manual Swap calls anywhere.
//
// Lifecycle: Supervise attaches a Supervisor to a ShardedProfile and a
// ConcurrentMatcher; the host drives it by calling Poll from its own loop,
// and Close detaches it. The Supervisor starts no goroutine and never
// closes the profile or matcher it supervises.
type Supervisor struct {
	sp  *ShardedProfile
	cm  *ConcurrentMatcher
	cfg SupervisorConfig

	state      atomic.Int32
	deopts     atomic.Uint64
	reopts     atomic.Uint64
	pollErrors atomic.Uint64
	accBits    atomic.Uint64 // math.Float64bits of the last window accuracy
	badRun     atomic.Int64  // consecutive bad windows

	// Poll-local sampling cursors; Poll is serialized by pollMu, so these
	// need no atomics beyond the snapshot fields above.
	pollMu       sync.Mutex
	lastIssued   uint64
	lastHits     uint64
	lastObserved uint64

	// bankedBase is the profile's banked-cycle count at startup and at every
	// deoptimization: the next optimization waits for fresh cycles past it.
	bankedBase uint64

	// inj, when non-nil, can force accuracy windows stale
	// (fault.Injector.MatcherStale), driving the deoptimization path on
	// demand. In-package tests set it after Supervise returns.
	inj fault.Injector
}

// Supervise wires a Supervisor over the profile and matcher: it enables
// accuracy tracking on the matcher and registers both with the profile's
// Stats. The caller then drives the state machine by calling Poll.
//
// The profile must have a grammar budget (MaxGrammarSymbols): every retrain
// reads the cycle streams banked since the last one, and without a budget no
// cycle ever banks.
func Supervise(sp *ShardedProfile, cm *ConcurrentMatcher, cfg SupervisorConfig) (*Supervisor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sp.cfg.MaxGrammarSymbols == 0 {
		return nil, errors.New("hotprefetch: Supervise requires a profile with MaxGrammarSymbols set (every retrain reads banked cycle streams)")
	}
	cfg = cfg.withDefaults()
	s := &Supervisor{sp: sp, cm: cm, cfg: cfg}
	cm.EnableAccuracyTracking(0)
	if restored, base := sp.restored(); len(restored) > 0 {
		// Warm start: a snapshot was restored into the profile, so optimize
		// from it immediately — no profiling period. It is an ordinary
		// optimization: BadWindows bad windows deoptimize it, and the next
		// retrain reads only the cycles banked after the restore, so a stale
		// snapshot cannot be relearned. A base set that a previous
		// supervisor's retrain left behind is no warm start: that supervisor
		// already judged it, so this one starts cold.
		if err := cm.Swap(restored); err != nil {
			return nil, err
		}
		if base.Valid {
			// Start the reported accuracy at the previous run's measured
			// ratio until the first conclusive live window replaces it.
			s.accBits.Store(math.Float64bits(base.Accuracy()))
		}
		s.state.Store(int32(StateOptimized))
		sp.obs.Emit(obs.KindPhaseOptimized, -1, uint64(len(restored)))
	} else if cm.NumStates() > 1 {
		s.state.Store(int32(StateOptimized))
		sp.obs.Emit(obs.KindPhaseOptimized, -1, uint64(cm.NumStates()))
	} else {
		s.state.Store(int32(StateProfiling))
		sp.obs.Emit(obs.KindPhaseProfiling, -1, 0)
	}
	s.bankedBase = sp.banked.Load()
	s.lastObserved = cm.Observations()
	s.lastIssued, s.lastHits = cm.AccuracyCounters()
	sp.AttachMatcher(cm)
	sp.supervisor.Store(s)
	return s, nil
}

// Close detaches the supervisor from the profile's Stats. Idempotent; the
// supervised profile and matcher are left running.
func (s *Supervisor) Close() { s.sp.supervisor.CompareAndSwap(s, nil) }

// State returns the current phase.
func (s *Supervisor) State() SupervisorState { return SupervisorState(s.state.Load()) }

// Accuracy returns the last conclusive window's hits/issued ratio.
func (s *Supervisor) Accuracy() float64 { return math.Float64frombits(s.accBits.Load()) }

// Snapshot returns the supervision counters for Stats.
func (s *Supervisor) Snapshot() SupervisorStats {
	issued, hits := s.cm.AccuracyCounters()
	return SupervisorStats{
		State:             s.State().String(),
		Accuracy:          s.Accuracy(),
		WindowsBelowFloor: int(s.badRun.Load()),
		Deoptimizations:   s.deopts.Load(),
		Reoptimizations:   s.reopts.Load(),
		PrefetchesIssued:  issued,
		PrefetchesHit:     hits,
		PollErrors:        s.pollErrors.Load(),
	}
}

// Poll advances the state machine by one supervision window: in
// StateOptimized it judges the accuracy window and deoptimizes after
// cfg.BadWindows consecutive bad ones; in StateProfiling/StateHibernating
// it re-optimizes once enough fresh evidence has banked. The embedding
// application calls it from its own loop, for instance once per batch of
// references it publishes (it is safe to call concurrently, but windows are
// only meaningful when polled at a roughly steady cadence). Every error Poll
// returns is counted in SupervisorStats.PollErrors.
func (s *Supervisor) Poll() error {
	s.pollMu.Lock()
	defer s.pollMu.Unlock()
	var err error
	if s.State() == StateOptimized {
		err = s.judgeWindow()
	} else {
		err = s.tryOptimize()
	}
	if err != nil {
		s.pollErrors.Add(1)
	}
	return err
}

// judgeWindow evaluates the accuracy of the observations since the last
// concluded window and deoptimizes after a run of bad windows.
func (s *Supervisor) judgeWindow() error {
	observed := s.cm.Observations()
	if observed-s.lastObserved < minWindowObservations {
		// Too quiet to judge yet; neither a strike nor an acquittal. The
		// window stays open, so the next poll judges these observations
		// together with its own.
		return nil
	}
	issued, hits := s.cm.AccuracyCounters()
	dIssued := issued - s.lastIssued
	dHits := hits - s.lastHits
	s.lastObserved, s.lastIssued, s.lastHits = observed, issued, hits

	var acc float64
	if dIssued > 0 {
		acc = float64(dHits) / float64(dIssued)
	}
	// An optimized matcher that sees traffic but issues nothing is stale by
	// definition (its heads no longer occur), so acc stays 0 and the window
	// is bad. Forced staleness injection overrides a healthy measurement.
	if s.inj != nil && s.inj.MatcherStale() {
		acc = 0
	}
	s.accBits.Store(math.Float64bits(acc))
	s.sp.obs.AccuracyWindow.ObserveRatio(acc)
	if acc >= s.cfg.AccuracyFloor {
		s.badRun.Store(0)
		return nil
	}
	if int(s.badRun.Add(1)) >= s.cfg.BadWindows {
		return s.deoptimize()
	}
	return nil
}

// safeSwap retrains the matcher's predictor on streams, converting a
// panicking factory into an error: a broken implementation must not take
// down the supervision loop.
func (s *Supervisor) safeSwap(streams []Stream) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("hotprefetch: predictor %q build panicked: %v", s.cm.Predictor(), r)
		}
	}()
	return s.cm.Swap(streams)
}

// deoptimize tears the optimization down: a pass-through matcher is
// published (no streams, so no detection code runs: observations cost 0
// comparisons and no prefetch ever fires) and the profile re-enters its
// evidence-gathering phase. The paper's §5 de-optimization, triggered by
// measured accuracy decay instead of an external call.
func (s *Supervisor) deoptimize() error {
	if err := s.safeSwap(nil); err != nil {
		// Building the empty machine cannot fail with a valid head length;
		// report a failure as a poll error rather than wedging the loop.
		return err
	}
	s.bankedBase = s.sp.banked.Load()
	s.badRun.Store(0)
	s.accBits.Store(0)
	s.deopts.Add(1)
	s.state.Store(int32(StateHibernating))
	// Value carries the run of bad windows that triggered the teardown.
	s.sp.obs.Emit(obs.KindPhaseHibernating, -1, uint64(s.cfg.BadWindows))
	return nil
}

// minFreshCycles is how many grammar-budget cycles must have landed in the
// shard banks since startup or the last deoptimization before the
// supervisor (re)optimizes. A cycle counts once its analysis has banked, not
// when it starts: a Poll in between would find nothing new to train on.
const minFreshCycles = 1

// tryOptimize retrains once minFreshCycles cycles have banked since the last
// transition. A retrain trains only on the streams banked since the previous
// successful optimization (ShardedProfile.rebase), capped at the profile's
// cycle analysis' MaxStreams: the evidence the matcher it replaces never saw,
// so a retrain never runs on the evidence that just went stale. Its training
// set then becomes the profile's base set, and the banks restart from the
// cycles that landed while the machine was building. That read is safe while
// producers are running, which is what lets a host retrain under live
// traffic.
func (s *Supervisor) tryOptimize() error {
	if s.sp.banked.Load()-s.bankedBase < minFreshCycles {
		return nil
	}
	streams, err := s.sp.rebase(s.sp.cfg.cycleAnalysis.MaxStreams, s.safeSwap)
	if err != nil {
		return err
	}
	if len(streams) == 0 {
		// Evidence banked but nothing hot yet; keep profiling.
		return nil
	}
	wasProfiling := s.State() == StateProfiling
	// Start the accuracy bookkeeping from this instant so the optimization
	// isn't judged on pre-swap silence.
	s.lastObserved = s.cm.Observations()
	s.lastIssued, s.lastHits = s.cm.AccuracyCounters()
	s.badRun.Store(0)
	s.state.Store(int32(StateOptimized))
	// Value carries the number of hot streams the new machine serves.
	s.sp.obs.Emit(obs.KindPhaseOptimized, -1, uint64(len(streams)))
	if !wasProfiling {
		s.reopts.Add(1)
	}
	return nil
}
