package hotprefetch

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotprefetch/internal/fault"
)

// phaseTrace builds a trace dominated by one repeating hot stream whose
// identity is offset per phase, so phase A's matcher is useless on phase B.
func phaseTrace(phase, reps int) []Ref {
	stream := make([]Ref, 12)
	for i := range stream {
		stream[i] = Ref{PC: 1000*phase + i, Addr: uint64(0x10000*phase + 8*i)}
	}
	var trace []Ref
	for r := 0; r < reps; r++ {
		trace = append(trace, stream...)
		trace = append(trace, Ref{PC: 90000 + phase, Addr: uint64(0xdead0000 + 64*r)})
	}
	return trace
}

// feedUntilCycle pushes trace repetitions through shard 0 until at least one
// fresh grammar-budget cycle banks past base, then flushes.
func feedUntilCycle(t *testing.T, sp *ShardedProfile, trace []Ref, base uint64) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if err := sp.Shard(0).AddAll(trace); err != nil {
			t.Fatal(err)
		}
		if err := sp.Flush(); err != nil {
			t.Fatal(err)
		}
		if sp.Stats().Resets > base {
			return
		}
	}
	t.Fatalf("no grammar cycle banked past %d after 200 trace repetitions", base)
}

// observeAll drives a trace through the matcher, as inserted detection code
// would.
func observeAll(cm *ConcurrentMatcher, trace []Ref) {
	for _, r := range trace {
		cm.Observe(r)
	}
}

// TestSupervisorDeoptimizeReoptimize is the acceptance test for the
// supervised runtime: a workload phase shift drags prefetch accuracy below
// the floor, the supervisor deoptimizes (Hibernating appears in Stats and a
// pass-through matcher is installed), re-optimizes from the next banked
// cycle, and accuracy recovers — with zero manual Swap calls anywhere.
func TestSupervisorDeoptimizeReoptimize(t *testing.T) {
	analysis := AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05}
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		CycleAnalysis:     analysis,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	cm, err := NewConcurrentMatcher(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := Supervise(sp, cm, SupervisorConfig{
		AccuracyFloor: 0.5,
		BadWindows:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	if got := sup.State(); got != StateProfiling {
		t.Fatalf("initial state = %v, want %v", got, StateProfiling)
	}

	// Phase A: profile until a cycle banks, then the supervisor optimizes.
	phaseA := phaseTrace(1, 40)
	feedUntilCycle(t, sp, phaseA, 0)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateOptimized {
		t.Fatalf("state after first banked cycle = %v, want %v", got, StateOptimized)
	}
	if cm.NumStates() <= 1 {
		t.Fatalf("optimized matcher has %d states, want > 1", cm.NumStates())
	}

	// Phase A traffic through the optimized matcher: accuracy is high, the
	// window is good, and the supervisor stays optimized.
	observeAll(cm, phaseA)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateOptimized {
		t.Fatalf("state after healthy window = %v, want %v", got, StateOptimized)
	}
	if acc := sup.Accuracy(); acc < 0.5 {
		t.Fatalf("phase A window accuracy = %g, want >= 0.5", acc)
	}
	issued, hits := cm.AccuracyCounters()
	if issued == 0 || hits == 0 {
		t.Fatalf("phase A counters issued=%d hits=%d, want both > 0", issued, hits)
	}

	// Phase shift: phase B references never match phase A heads, so the
	// matcher issues nothing against real traffic — stale by definition.
	// Two consecutive bad windows deoptimize.
	phaseB := phaseTrace(2, 40)
	for poll := 0; poll < 2; poll++ {
		observeAll(cm, phaseB)
		if err := sup.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	if got := sup.State(); got != StateHibernating {
		t.Fatalf("state after %d stale windows = %v, want %v", 2, got, StateHibernating)
	}
	if cm.NumStates() != 1 {
		t.Fatalf("deoptimized matcher has %d states, want 1 (pass-through)", cm.NumStates())
	}
	st := sp.Stats()
	if st.Supervisor == nil {
		t.Fatal("Stats.Supervisor is nil with a supervisor attached")
	}
	if st.Supervisor.State != "hibernating" {
		t.Fatalf("Stats.Supervisor.State = %q, want %q", st.Supervisor.State, "hibernating")
	}
	if st.Supervisor.Deoptimizations != 1 {
		t.Fatalf("Deoptimizations = %d, want 1", st.Supervisor.Deoptimizations)
	}

	// Polling while hibernating with no fresh evidence is a no-op.
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateHibernating {
		t.Fatalf("state with no fresh cycles = %v, want %v", got, StateHibernating)
	}

	// Phase B profiles; the next banked cycle re-optimizes.
	feedUntilCycle(t, sp, phaseB, sp.Stats().Resets)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateOptimized {
		t.Fatalf("state after fresh phase B cycle = %v, want %v", got, StateOptimized)
	}
	if cm.NumStates() <= 1 {
		t.Fatalf("re-optimized matcher has %d states, want > 1", cm.NumStates())
	}

	// Accuracy recovers on phase B traffic.
	observeAll(cm, phaseB)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateOptimized {
		t.Fatalf("state after recovered window = %v, want %v", got, StateOptimized)
	}
	if acc := sup.Accuracy(); acc < 0.5 {
		t.Fatalf("phase B window accuracy = %g, want >= 0.5", acc)
	}
	snap := sup.Snapshot()
	if snap.Reoptimizations != 1 {
		t.Fatalf("Reoptimizations = %d, want 1", snap.Reoptimizations)
	}
	if snap.WindowsBelowFloor != 0 {
		t.Fatalf("WindowsBelowFloor = %d, want 0 after recovery", snap.WindowsBelowFloor)
	}
	// The supervisor did all the swapping: initial optimize, deoptimize,
	// re-optimize.
	if got := cm.Swaps(); got != 3 {
		t.Fatalf("matcher swaps = %d, want exactly 3 (all supervisor-driven)", got)
	}
}

// TestSupervisorForcedStaleness drives the deoptimization path with the
// fault injector's forced-staleness point: traffic is healthy, but every
// window is judged stale, so the supervisor must deoptimize after exactly
// BadWindows polls.
func TestSupervisorForcedStaleness(t *testing.T) {
	analysis := AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05}
	trace := phaseTrace(3, 40)
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		CycleAnalysis:     analysis,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if err := sp.Shard(0).AddAll(trace); err != nil {
		t.Fatal(err)
	}
	streams, err := sp.HotStreamsErr(analysis)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) == 0 {
		t.Fatal("no hot streams detected to optimize with")
	}
	cm, err := NewConcurrentMatcher(streams, 2)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := Supervise(sp, cm, SupervisorConfig{
		AccuracyFloor: 0.25,
		BadWindows:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	sup.inj = &fault.Hooks{MatcherStaleFn: func() bool { return true }}
	if got := sup.State(); got != StateOptimized {
		t.Fatalf("supervising a trained matcher starts in %v, want %v", got, StateOptimized)
	}
	for poll := 1; poll <= 3; poll++ {
		observeAll(cm, trace)
		if err := sup.Poll(); err != nil {
			t.Fatal(err)
		}
		want := StateOptimized
		if poll == 3 {
			want = StateHibernating
		}
		if got := sup.State(); got != want {
			t.Fatalf("state after forced-stale poll %d = %v, want %v", poll, got, want)
		}
	}
	if got := sup.Snapshot().Deoptimizations; got != 1 {
		t.Fatalf("Deoptimizations = %d, want 1", got)
	}
}

// TestSupervisorBackgroundLoop drives the supervisor from the host's own
// loop, as a server would: each publish is followed by a Poll and no
// Flush, so the profiled workload must get optimized from the cycles the
// shard consumer banks in the background, and Close must detach the
// supervisor from Stats idempotently.
func TestSupervisorBackgroundLoop(t *testing.T) {
	analysis := AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05}
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		CycleAnalysis:     analysis,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	cm, err := NewConcurrentMatcher(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := Supervise(sp, cm, SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}

	trace := phaseTrace(4, 40)
	deadline := time.Now().Add(10 * time.Second)
	for sup.State() != StateOptimized {
		if time.Now().After(deadline) {
			t.Fatalf("host loop never optimized; state=%v stats=%v", sup.State(), sp.Stats())
		}
		if err := sp.Shard(0).AddAll(trace); err != nil {
			t.Fatal(err)
		}
		if err := sup.Poll(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if cm.Swaps() == 0 {
		t.Fatal("host loop reported Optimized without swapping the matcher")
	}

	sup.Close()
	sup.Close() // idempotent
	if sp.Stats().Supervisor != nil {
		t.Fatal("Stats.Supervisor still set after supervisor Close")
	}
}

func TestSupervisorConfigValidate(t *testing.T) {
	bad := []SupervisorConfig{
		{AccuracyFloor: -0.1},
		{AccuracyFloor: 1.5},
		{BadWindows: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d (%+v) validated", i, cfg)
		}
	}
	sp := NewShardedProfile(1)
	defer sp.Close()
	cm, err := NewConcurrentMatcher(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Supervise(sp, cm, SupervisorConfig{BadWindows: -1}); err == nil {
		t.Fatal("Supervise accepted a negative BadWindows")
	}
	if sp.Stats().Supervisor != nil {
		t.Fatal("failed Supervise still attached a supervisor")
	}
}

// TestSuperviseRequiresGrammarBudget: every retrain reads banked cycle
// streams, so Supervise rejects a profile whose cycles never bank.
func TestSuperviseRequiresGrammarBudget(t *testing.T) {
	sp := NewShardedProfile(1)
	defer sp.Close()
	cm, err := NewConcurrentMatcher(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Supervise(sp, cm, SupervisorConfig{}); err == nil || !strings.Contains(err.Error(), "MaxGrammarSymbols") {
		t.Fatalf("Supervise over a profile without a grammar budget = %v, want a MaxGrammarSymbols error", err)
	}
	if sp.Stats().Supervisor != nil {
		t.Fatal("rejected Supervise still attached a supervisor")
	}
}

// sameObservations fails unless got returns the same prefetches and
// comparison counts as want at every reference of trace.
func sameObservations(t *testing.T, got, want *ConcurrentMatcher, trace []Ref) {
	t.Helper()
	for i, r := range trace {
		gp, gc := got.Observe(r)
		wp, wc := want.Observe(r)
		if !slices.Equal(gp, wp) || gc != wc {
			t.Fatalf("ref %d: (%v, %d) != reference (%v, %d)", i, gp, gc, wp, wc)
		}
	}
}

// TestSupervisorRetrainKeepsHeadLen: a supervised retrain publishes a
// machine with the head length the matcher was built with.
func TestSupervisorRetrainKeepsHeadLen(t *testing.T) {
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		CycleAnalysis:     AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	cm, err := NewConcurrentMatcher(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := Supervise(sp, cm, SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	feedUntilCycle(t, sp, phaseTrace(1, 40), 0)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateOptimized {
		t.Fatalf("state after the first banked cycle = %v, want %v", got, StateOptimized)
	}
	want, err := NewConcurrentMatcher(sp.BankedStreams(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	sameObservations(t, cm, want, phaseTrace(1, 40))
}

// TestStatsJSONRoundTripWithSupervisor extends the Stats JSON contract to
// the supervision snapshot.
func TestStatsJSONRoundTripWithSupervisor(t *testing.T) {
	sp, err := NewShardedProfileConfig(ShardedConfig{Shards: 1, MaxGrammarSymbols: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	cm, err := NewConcurrentMatcher(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := Supervise(sp, cm, SupervisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	st := sp.Stats()
	if st.Supervisor == nil || st.Supervisor.State != "profiling" {
		t.Fatalf("Stats.Supervisor = %+v, want profiling snapshot", st.Supervisor)
	}
	var back Stats
	if err := json.Unmarshal([]byte(st.String()), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("Stats did not survive the JSON round trip:\n got %+v\nwant %+v", back, st)
	}
}

// boomArmed arms test-boom: the next build over a trained stream set
// panics, once.
var boomArmed atomic.Bool

func init() {
	// test-boom is the DFSM with a one-shot fuse — the shape of a broken
	// implementation detonating exactly when the supervisor first trains
	// it. Untrained builds (the pass-through state) never detonate, so the
	// matcher can be constructed over it.
	RegisterPredictor("test-boom",
		func(streams []Stream, headLen int) (Predictor, error) {
			if len(streams) > 0 && boomArmed.Swap(false) {
				panic("test-boom: deliberate build panic")
			}
			return NewPredictor(DefaultPredictor, streams, headLen)
		})
}

// TestSupervisorABChaosPanicDemotes supervises a matcher whose own
// predictor panics on its first trained build: the optimizing Poll must
// recover the panic into an error and leave the pass-through instance
// published, and the next Poll must retrain the same implementation on the
// same banked evidence and serve accurate prefetches.
func TestSupervisorABChaosPanicDemotes(t *testing.T) {
	analysis := AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05}
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		CycleAnalysis:     analysis,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	cm, err := NewConcurrentPredictor("test-boom", nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := Supervise(sp, cm, SupervisorConfig{AccuracyFloor: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	boomArmed.Store(true)
	defer boomArmed.Store(false)
	trace := phaseTrace(2, 40)
	feedUntilCycle(t, sp, trace, 0)

	// The banked cycle triggers the first optimization, whose build panics.
	// Poll reports it; the poll itself must not panic.
	err = sup.Poll()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Poll over a panicking build = %v, want the recovered panic", err)
	}
	if got := sup.State(); got != StateProfiling {
		t.Fatalf("state after the panicking build = %v, want %v", got, StateProfiling)
	}
	if got := cm.NumStates(); got != 1 {
		t.Fatalf("matcher has %d states after the failed build, want 1 (pass-through)", got)
	}
	if got := cm.Swaps(); got != 0 {
		t.Fatalf("Swaps = %d after the failed build, want 0 (nothing published)", got)
	}
	if got := sup.Snapshot().PollErrors; got != 1 {
		t.Fatalf("PollErrors = %d after the failed Poll, want 1", got)
	}
	for i, r := range trace {
		if pf, _ := cm.Observe(r); len(pf) != 0 {
			t.Fatalf("pass-through matcher prefetched %v at ref %d", pf, i)
		}
	}
	if issued, _ := cm.AccuracyCounters(); issued != 0 {
		t.Fatalf("pass-through matcher issued %d prefetches, want 0", issued)
	}

	// Supervision goes on: the next poll retrains the matcher's own
	// implementation on the same banked cycle, and this time it publishes.
	if err := sup.Poll(); err != nil {
		t.Fatalf("retraining poll: %v", err)
	}
	if got := sup.State(); got != StateOptimized {
		t.Fatalf("state after the retraining poll = %v, want %v", got, StateOptimized)
	}
	if got := cm.Predictor(); got != "test-boom" {
		t.Fatalf("published predictor = %q, want the matcher's own %q", got, "test-boom")
	}
	if cm.NumStates() < 2 || cm.Swaps() != 1 {
		t.Fatalf("after retraining: %d states, %d swaps; want a trained machine from one swap",
			cm.NumStates(), cm.Swaps())
	}

	// The optimization serves: a window of the hot trace is judged good.
	observeAll(cm, trace)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	snap := sup.Snapshot()
	if snap.State != "optimized" || snap.Accuracy < 0.25 || snap.WindowsBelowFloor != 0 {
		t.Fatalf("window after recovery: %+v, want an optimized state with a good window", snap)
	}
	if snap.PrefetchesIssued == 0 || snap.PrefetchesHit == 0 {
		t.Fatalf("recovered matcher issued=%d hit=%d, want both > 0", snap.PrefetchesIssued, snap.PrefetchesHit)
	}
	if snap.Deoptimizations != 0 || snap.Reoptimizations != 0 {
		t.Fatalf("deopts=%d reopts=%d, want 0, 0 (the failed build never optimized)",
			snap.Deoptimizations, snap.Reoptimizations)
	}
}

// feedUntilReset pushes phaseTrace(phase, ...) through shard 0 one
// repetition at a time until a grammar cycle starts, so the live grammar
// keeps less than one repetition of the phase afterwards. With pipelined
// analysis the cycle may not have banked yet.
func feedUntilReset(t *testing.T, sp *ShardedProfile, phase int) {
	t.Helper()
	const reps = 1000
	trace := phaseTrace(phase, reps)
	rep := len(trace) / reps
	base := sp.Stats().Resets
	for lo := 0; lo < len(trace); lo += rep {
		if err := sp.Shard(0).AddAll(trace[lo : lo+rep]); err != nil {
			t.Fatal(err)
		}
		if err := sp.Flush(); err != nil {
			t.Fatal(err)
		}
		if sp.Stats().Resets > base {
			return
		}
	}
	t.Fatalf("no grammar cycle started past %d after %d repetitions", base, reps)
}

// prefetchesOn counts the prefetch addresses cm issues over trace.
func prefetchesOn(cm *ConcurrentMatcher, trace []Ref) int {
	n := 0
	for _, r := range trace {
		pf, _ := cm.Observe(r)
		n += len(pf)
	}
	return n
}

// phasesIn reports which phaseTrace phases the streams' references come
// from (cold references excluded).
func phasesIn(streams []Stream) map[int]bool {
	in := map[int]bool{}
	for _, st := range streams {
		for _, r := range st.Refs {
			if r.PC < 90000 {
				in[r.PC/1000] = true
			}
		}
	}
	return in
}

// TestSupervisorRetrainForgetsStalePhase: phase A optimizes, phase B traffic
// deoptimizes that matcher, and one more phase B cycle retrains it. The
// retrain reads only what banked since the phase A optimization, so the new
// matcher knows phase B alone and never prefetches on a phase A head.
func TestSupervisorRetrainForgetsStalePhase(t *testing.T) {
	analysis := AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05}
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		CycleAnalysis:     analysis,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	cm, err := NewConcurrentMatcher(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := Supervise(sp, cm, SupervisorConfig{
		AccuracyFloor: 0.5,
		BadWindows:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	phaseA, phaseB := phaseTrace(1, 40), phaseTrace(2, 40)
	feedUntilReset(t, sp, 1)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if sup.State() != StateOptimized || prefetchesOn(cm, phaseA) == 0 {
		t.Fatalf("phase A did not optimize: state %v", sup.State())
	}
	if err := sup.Poll(); err != nil { // a good phase A window
		t.Fatal(err)
	}
	for poll := 0; poll < 2; poll++ {
		observeAll(cm, phaseB)
		if err := sup.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	if got := sup.State(); got != StateHibernating {
		t.Fatalf("state after two phase B windows = %v, want %v", got, StateHibernating)
	}
	feedUntilReset(t, sp, 2)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateOptimized {
		t.Fatalf("state after a phase B cycle = %v, want %v", got, StateOptimized)
	}
	if n := prefetchesOn(cm, phaseA); n != 0 {
		t.Fatalf("retrained matcher issued %d prefetches on phase A, want 0 (it relearned the stale phase)", n)
	}
	if prefetchesOn(cm, phaseB) == 0 {
		t.Fatal("retrained matcher issued no prefetch on phase B")
	}
	// The profile serves the retrain's training set as its base: phase B,
	// and nothing banked since.
	if in := phasesIn(sp.BankedStreams(0)); !in[2] || in[1] {
		t.Fatalf("BankedStreams after the retrain covers phases %v, want phase 2 alone", in)
	}
}

// TestSupervisorReadinessCountsBankedCycles: readiness counts cycles whose
// analysis has landed in the bank, not cycles that have started. With the
// analysis of the first cycle after a deoptimization held back, a Poll
// after that cycle's reset but before its bank lands has no new evidence
// and must stay hibernating; the Poll after it lands must optimize.
func TestSupervisorReadinessCountsBankedCycles(t *testing.T) {
	analysis := AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05}
	var hold, stale atomic.Bool
	release := make(chan struct{})
	sp := startProfile(t, ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		AnalysisWorkers:   1,
		CycleAnalysis:     analysis,
	}, realClock{}, &fault.Hooks{AnalysisFn: func(int) fault.Outcome {
		if hold.Load() {
			<-release
		}
		return fault.Outcome{}
	}})
	defer sp.Close()
	defer func() {
		if hold.Load() {
			close(release)
		}
	}()
	cm, err := NewConcurrentMatcher(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := Supervise(sp, cm, SupervisorConfig{BadWindows: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	sup.inj = &fault.Hooks{MatcherStaleFn: stale.Load}

	feedUntilReset(t, sp, 1)
	if err := sp.drainAnalyses(); err != nil {
		t.Fatal(err)
	}
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateOptimized {
		t.Fatalf("state after the first banked cycle = %v, want %v", got, StateOptimized)
	}
	// A cycle banks while the matcher is installed, so the banks hold
	// evidence when it is torn down: readiness alone must hold the retrain.
	feedUntilReset(t, sp, 1)
	if err := sp.drainAnalyses(); err != nil {
		t.Fatal(err)
	}
	stale.Store(true)
	observeAll(cm, phaseTrace(1, 40))
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	stale.Store(false)
	if got := sup.State(); got != StateHibernating {
		t.Fatalf("state after a stale window = %v, want %v", got, StateHibernating)
	}

	hold.Store(true)
	feedUntilReset(t, sp, 2)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateHibernating {
		t.Fatalf("state with the new cycle started but not banked = %v, want %v", got, StateHibernating)
	}
	hold.Store(false)
	close(release)
	if err := sp.drainAnalyses(); err != nil {
		t.Fatal(err)
	}
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateOptimized {
		t.Fatalf("state once the cycle banked = %v, want %v", got, StateOptimized)
	}
	if n := prefetchesOn(cm, phaseTrace(2, 40)); n == 0 {
		t.Fatal("re-optimized matcher issued no prefetch on the banked phase")
	}
}

// lateBank, when set, runs inside the next trained build of test-late-bank,
// once; lateBuilds records the stream set of every trained build while
// lateRecord is set.
var (
	lateMu     sync.Mutex
	lateBank   func()
	lateRecord bool
	lateBuilds [][]Stream
)

func init() {
	// test-late-bank is the DFSM with a hook inside its build: the shape of
	// a grammar cycle banking while the supervisor's retrain is compiling.
	RegisterPredictor("test-late-bank",
		func(streams []Stream, headLen int) (Predictor, error) {
			if len(streams) > 0 {
				lateMu.Lock()
				hook := lateBank
				lateBank = nil
				if lateRecord {
					lateBuilds = append(lateBuilds, streams)
				}
				lateMu.Unlock()
				if hook != nil {
					hook()
				}
			}
			return NewPredictor(DefaultPredictor, streams, headLen)
		})
}

// TestSupervisorRetrainKeepsCycleBankedDuringBuild: a publish clears from
// the banks only the cycles its retrain read. A cycle that banks while the
// machine is building stays banked, is served by BankedStreams next to the
// new base, and is part of the next retrain's evidence.
func TestSupervisorRetrainKeepsCycleBankedDuringBuild(t *testing.T) {
	analysis := AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05}
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		CycleAnalysis:     analysis,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	cm, err := NewConcurrentPredictor("test-late-bank", nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	var stale atomic.Bool
	sup, err := Supervise(sp, cm, SupervisorConfig{BadWindows: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	sup.inj = &fault.Hooks{MatcherStaleFn: stale.Load}
	lateMu.Lock()
	lateRecord, lateBuilds = true, nil
	lateBank = func() { feedUntilReset(t, sp, 2) }
	lateMu.Unlock()
	defer func() {
		lateMu.Lock()
		lateRecord, lateBuilds, lateBank = false, nil, nil
		lateMu.Unlock()
	}()

	feedUntilReset(t, sp, 1)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateOptimized {
		t.Fatalf("state after the first banked cycle = %v, want %v", got, StateOptimized)
	}
	var banks []Stream
	for _, s := range sp.shards {
		banks = append(banks, s.retainedStreams()...)
	}
	if in := phasesIn(banks); !in[2] || in[1] {
		t.Fatalf("banks after the publish cover phases %v, want the phase 2 cycle that banked during the build", in)
	}
	if in := phasesIn(sp.BankedStreams(0)); !in[1] || !in[2] {
		t.Fatalf("BankedStreams covers phases %v, want the phase 1 base and the phase 2 bank", in)
	}

	stale.Store(true)
	observeAll(cm, phaseTrace(1, 40))
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	stale.Store(false)
	if got := sup.State(); got != StateHibernating {
		t.Fatalf("state after a stale window = %v, want %v", got, StateHibernating)
	}
	feedUntilReset(t, sp, 3)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateOptimized {
		t.Fatalf("state after a fresh cycle = %v, want %v", got, StateOptimized)
	}
	lateMu.Lock()
	builds := lateBuilds
	lateMu.Unlock()
	if len(builds) != 2 {
		t.Fatalf("%d trained builds, want 2", len(builds))
	}
	if in := phasesIn(builds[0]); !in[1] || in[2] {
		t.Fatalf("first retrain trained on phases %v, want phase 1 alone", in)
	}
	if in := phasesIn(builds[1]); !in[2] || !in[3] || in[1] {
		t.Fatalf("second retrain trained on phases %v, want phases 2 and 3", in)
	}
}

// TestSuperviseLeftoverBaseIsColdStart: a base set that a previous
// supervisor's retrain installed is no warm start. The next supervisor
// starts cold — profiling, not optimized — and the profile still serves
// that base until its own first retrain.
func TestSuperviseLeftoverBaseIsColdStart(t *testing.T) {
	analysis := AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05}
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		CycleAnalysis:     analysis,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	cfg := SupervisorConfig{BadWindows: 1}
	cm1, err := NewConcurrentMatcher(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	sup1, err := Supervise(sp, cm1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedUntilReset(t, sp, 1)
	if err := sup1.Poll(); err != nil {
		t.Fatal(err)
	}
	if sup1.State() != StateOptimized {
		t.Fatalf("first supervisor state = %v, want %v", sup1.State(), StateOptimized)
	}
	sup1.Close()

	var stale atomic.Bool
	cm2, err := NewConcurrentMatcher(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	sup2, err := Supervise(sp, cm2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sup2.Close()
	sup2.inj = &fault.Hooks{MatcherStaleFn: stale.Load}
	if snap := sup2.Snapshot(); snap.State != "profiling" {
		t.Fatalf("supervisor over a leftover base: %+v, want a cold start", snap)
	}
	if in := phasesIn(sp.BankedStreams(0)); !in[1] {
		t.Fatalf("BankedStreams covers phases %v, want the leftover phase 1 base", in)
	}
	feedUntilReset(t, sp, 2)
	if err := sup2.Poll(); err != nil {
		t.Fatal(err)
	}
	stale.Store(true)
	observeAll(cm2, phaseTrace(2, 40))
	if err := sup2.Poll(); err != nil {
		t.Fatal(err)
	}
	snap, st := sup2.Snapshot(), sp.Stats()
	if snap.State != "hibernating" || snap.Deoptimizations != 1 {
		t.Fatalf("after a stale window: %+v, want one deoptimization", snap)
	}
	if st.RestoredStreams != 0 {
		t.Fatalf("restored %d; want 0 (nothing was restored)", st.RestoredStreams)
	}
}

// TestRebaseSeenWholeByConcurrentReaders races BankedStreams and snapshot
// readers against twenty retrains, for the race detector. A retrain moves
// its evidence from the shard banks to the base set in one step, so once a
// cycle has banked hot streams no reader may find BankedStreams empty.
func TestRebaseSeenWholeByConcurrentReaders(t *testing.T) {
	analysis := AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05}
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		AnalysisWorkers:   1,
		CycleAnalysis:     analysis,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	cm, err := NewConcurrentMatcher(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Every window is stale, so each round optimizes and then deoptimizes.
	sup, err := Supervise(sp, cm, SupervisorConfig{BadWindows: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	sup.inj = &fault.Hooks{MatcherStaleFn: func() bool { return true }}
	feedUntilReset(t, sp, 1)
	if err := sp.drainAnalyses(); err != nil {
		t.Fatal(err)
	}

	var (
		stop  atomic.Bool
		empty atomic.Int64
		wg    sync.WaitGroup
	)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for !stop.Load() {
				if len(sp.BankedStreams(0)) == 0 {
					empty.Add(1)
				}
				buf.Reset()
				if err := sp.WriteSnapshot(&buf, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	const rounds = 20
	for round := 0; round < rounds; round++ {
		if err := sup.Poll(); err != nil { // optimize on what banked
			t.Fatal(err)
		}
		observeAll(cm, phaseTrace(1+round%3, 20))
		if err := sup.Poll(); err != nil { // a stale window deoptimizes
			t.Fatal(err)
		}
		feedUntilReset(t, sp, 1+(round+1)%3)
		if err := sp.drainAnalyses(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := empty.Load(); n != 0 {
		t.Fatalf("BankedStreams read empty %d times while retrains moved the evidence", n)
	}
	if snap := sup.Snapshot(); snap.Reoptimizations != rounds-1 {
		t.Fatalf("%d re-optimizations over %d rounds, want %d", snap.Reoptimizations, rounds, rounds-1)
	}
}
