package hotprefetch

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotprefetch/internal/fault"
)

// chaosTrace builds producer p's reference stream: a repeating 12-ref hot
// stream plus per-repetition noise, sized so grammar budgets cycle many
// times over the run.
func chaosTrace(p, refs int) []Ref {
	stream := make([]Ref, 12)
	for i := range stream {
		stream[i] = Ref{PC: 500*p + i, Addr: uint64(0x4000*p + 8*i)}
	}
	trace := make([]Ref, 0, refs)
	for r := 0; len(trace) < refs; r++ {
		trace = append(trace, stream...)
		trace = append(trace, Ref{PC: 77000 + p, Addr: uint64(0xbeef0000 + 64*r)})
	}
	return trace[:refs]
}

// waitGoroutines polls until the live goroutine count returns to the given
// baseline (plus slack for runtime housekeeping), failing after a deadline.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d live, baseline %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkCycleInvariant asserts the failure-containment accounting contract:
// at quiescence every budget cycle reached exactly one terminal state.
func checkCycleInvariant(t *testing.T, st Stats) {
	t.Helper()
	if st.Resets != st.CyclesAnalyzed+st.AnalysesFailed+st.AnalysesSkipped {
		t.Errorf("cycle accounting broken: Resets=%d != CyclesAnalyzed=%d + AnalysesFailed=%d + AnalysesSkipped=%d",
			st.Resets, st.CyclesAnalyzed, st.AnalysesFailed, st.AnalysesSkipped)
	}
}

// chaosScenario is one fault profile for the policy × fault matrix.
type chaosScenario struct {
	name   string
	faults fault.SeededConfig
	// verify receives the final stats and the injector for exact
	// reconciliation of injected faults against recorded failures.
	verify func(t *testing.T, st Stats, inj *fault.Seeded)
}

// TestChaosPolicyFaultMatrix drives every ingest policy through every fault
// scenario with workers, budgets, and breakers enabled, under -race, and
// asserts liveness (all calls return, goroutines return to baseline) plus
// exact shed and failure accounting.
func TestChaosPolicyFaultMatrix(t *testing.T) {
	perShard := 300_000
	if testing.Short() {
		perShard = 60_000
	}
	scenarios := []chaosScenario{
		{
			name:   "panic-sometimes",
			faults: fault.SeededConfig{Seed: 1, PanicRate: 0.2},
			verify: func(t *testing.T, st Stats, inj *fault.Seeded) {
				// Every injected panic is one recorded failure: skipped jobs
				// never reach the injector, and no other fault is armed.
				if st.AnalysesFailed != inj.Panics() {
					t.Errorf("AnalysesFailed=%d, want exactly injected panics %d",
						st.AnalysesFailed, inj.Panics())
				}
			},
		},
		{
			name:   "panic-always",
			faults: fault.SeededConfig{Seed: 2, PanicRate: 1},
			verify: func(t *testing.T, st Stats, inj *fault.Seeded) {
				if st.CyclesAnalyzed != 0 {
					t.Errorf("CyclesAnalyzed=%d with PanicRate 1, want 0", st.CyclesAnalyzed)
				}
				if st.AnalysesFailed != inj.Panics() {
					t.Errorf("AnalysesFailed=%d, want exactly injected panics %d",
						st.AnalysesFailed, inj.Panics())
				}
				// Breakers are per shard and trip on consecutive failures;
				// with PanicRate 1 every failure run is consecutive, so any
				// shard that failed threshold times must have tripped.
				for i, ss := range st.Shards {
					if ss.AnalysesFailed >= breakerThreshold && ss.BreakerTransitions == 0 {
						t.Errorf("shard %d: %d consecutive failures but breaker never tripped",
							i, ss.AnalysesFailed)
					}
				}
			},
		},
		{
			name:   "slow",
			faults: fault.SeededConfig{Seed: 3, DelayRate: 1, Delay: time.Millisecond},
			verify: func(t *testing.T, st Stats, inj *fault.Seeded) {
				// Every analysis is delayed, and a slow analysis is not a
				// failure: each one completes.
				if st.AnalysesFailed != 0 {
					t.Errorf("AnalysesFailed=%d with only delays injected, want 0", st.AnalysesFailed)
				}
				if st.CyclesAnalyzed != inj.Delays() {
					t.Errorf("CyclesAnalyzed=%d, want exactly injected delays %d",
						st.CyclesAnalyzed, inj.Delays())
				}
			},
		},
		{
			name:   "ring-pressure",
			faults: fault.SeededConfig{Seed: 4, RingFullRate: 0.05},
			verify: func(t *testing.T, st Stats, inj *fault.Seeded) {
				if st.AnalysesFailed != 0 || st.AnalysesSkipped != 0 {
					t.Errorf("failures recorded with no analysis faults armed: failed=%d skipped=%d",
						st.AnalysesFailed, st.AnalysesSkipped)
				}
				if inj.RingFulls() == 0 {
					t.Error("ring pressure scenario injected no full-ring events")
				}
			},
		},
		{
			name: "combo",
			faults: fault.SeededConfig{
				Seed: 5, PanicRate: 0.1,
				DelayRate: 0.1, Delay: 2 * time.Millisecond,
				RingFullRate: 0.02,
			},
			verify: func(t *testing.T, st Stats, inj *fault.Seeded) {
				// A job fails exactly when it drew a panic, delayed or not:
				// a delay only slows it.
				if st.AnalysesFailed != inj.Panics() {
					t.Errorf("AnalysesFailed=%d, want exactly injected panics %d (delays=%d)",
						st.AnalysesFailed, inj.Panics(), inj.Delays())
				}
			},
		},
	}
	for _, policy := range []IngestPolicy{Block, Drop, Sample} {
		for _, sc := range scenarios {
			t.Run(policy.String()+"/"+sc.name, func(t *testing.T) {
				runChaos(t, policy, sc, perShard)
			})
		}
	}
}

func runChaos(t *testing.T, policy IngestPolicy, sc chaosScenario, perShard int) {
	const shards = 4
	base := runtime.NumGoroutine()
	inj := fault.NewSeeded(sc.faults)
	sp := startProfile(t, ShardedConfig{
		Shards:            shards,
		Policy:            policy,
		MaxGrammarSymbols: 64,
		AnalysisWorkers:   2,
		cycleAnalysis:     AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05},
	}, realClock{}, inj)

	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trace := chaosTrace(i+1, perShard)
			for off := 0; off < len(trace); off += 512 {
				end := off + 512
				if end > len(trace) {
					end = len(trace)
				}
				if err := sp.AddBatch(i, trace[off:end]); err != nil {
					t.Errorf("shard %d AddBatch: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	// Liveness: the quiescent reader returns, with no stall, even when
	// every analysis is failing.
	if _, err := sp.HotStreams(AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05}); err != nil {
		t.Errorf("HotStreams under chaos: %v", err)
	}
	sp.Close()
	sp.Close() // idempotent under chaos too

	st := sp.Stats()
	checkCycleInvariant(t, st)
	// Shed accounting: every produced reference is on the books exactly
	// once — pushed, dropped, or sampled out.
	for i, ss := range st.Shards {
		total := ss.Pushed + ss.Dropped + ss.Sampled
		if total != uint64(perShard) {
			t.Errorf("shard %d books %d references (pushed=%d dropped=%d sampled=%d), want %d",
				i, total, ss.Pushed, ss.Dropped, ss.Sampled, perShard)
		}
	}
	if policy == Block && (st.Dropped != 0 || st.Sampled != 0) {
		t.Errorf("Block policy shed references: dropped=%d sampled=%d", st.Dropped, st.Sampled)
	}
	if sc.verify != nil {
		sc.verify(t, st, inj)
	}
	waitGoroutines(t, base)
}

// TestChaosBreakerRecovery walks one shard's breaker through its full
// closed → open → half-open → closed cycle at its production schedule, in
// virtual time: the first breakerThreshold failures trip it, cycles during
// the backoff are skipped without analysis, and once the clock passes the
// jittered backoff, in [breakerBackoff/2, breakerBackoff], the half-open
// probe's success restores full service.
func TestChaosBreakerRecovery(t *testing.T) {
	var analyses atomic.Int64
	hooks := &fault.Hooks{AnalysisFn: func(int) fault.Outcome {
		// Exactly the first breakerThreshold analyses panic; everything
		// after succeeds, so the probe must close the breaker.
		if analyses.Add(1) <= breakerThreshold {
			return fault.Outcome{Panic: true}
		}
		return fault.Outcome{}
	}}
	clk := newFakeClock()
	sp := startProfile(t, ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		cycleAnalysis:     AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05},
	}, clk, hooks)
	defer sp.Close()

	trace := chaosTrace(1, 4096)
	feed := func() Stats {
		t.Helper()
		if err := sp.Shard(0).AddAll(trace); err != nil {
			t.Fatal(err)
		}
		if err := sp.Flush(); err != nil {
			t.Fatal(err)
		}
		return sp.Stats()
	}
	st := feed()
	for st.AnalysesFailed < breakerThreshold {
		st = feed()
	}
	st = feed()
	if ss := st.Shards[0]; ss.BreakerState != "open" || ss.AnalysesSkipped == 0 || st.CyclesAnalyzed != 0 {
		t.Fatalf("after %d failures with the clock standing: breaker %s, %d skipped, %d analyzed; want open, skipping, none analyzed",
			st.AnalysesFailed, ss.BreakerState, ss.AnalysesSkipped, st.CyclesAnalyzed)
	}
	clk.Advance(breakerBackoff/2 - time.Nanosecond)
	skipped := st.AnalysesSkipped
	if st = feed(); st.Shards[0].BreakerState != "open" || st.AnalysesSkipped == skipped || st.CyclesAnalyzed != 0 {
		t.Fatalf("%v into the backoff: breaker %s, %d skipped (%d before), %d analyzed; want still open and skipping",
			breakerBackoff/2-time.Nanosecond, st.Shards[0].BreakerState, st.AnalysesSkipped, skipped, st.CyclesAnalyzed)
	}
	clk.Advance(breakerBackoff/2 + time.Nanosecond)
	st = feed()
	if st.Shards[0].BreakerState != "closed" || st.CyclesAnalyzed == 0 {
		t.Fatalf("past the %v backoff: breaker %s, %d analyzed; want closed and analyzing", breakerBackoff,
			st.Shards[0].BreakerState, st.CyclesAnalyzed)
	}
	// Trip (closed→open), probe (open→half-open), and restore
	// (half-open→closed) are three recorded transitions.
	if st.BreakerTransitions != 3 {
		t.Fatalf("BreakerTransitions=%d after one recovery cycle, want 3", st.BreakerTransitions)
	}
	checkCycleInvariant(t, st)
}

// TestChaosCloseRacesAnalysis closes the profile while slow background
// analyses are still in flight: Close must drain the pool and return, and
// every goroutine must exit.
func TestChaosCloseRacesAnalysis(t *testing.T) {
	base := runtime.NumGoroutine()
	inj := fault.NewSeeded(fault.SeededConfig{Seed: 9, DelayRate: 1, Delay: 2 * time.Millisecond})
	sp := startProfile(t, ShardedConfig{
		Shards:            2,
		MaxGrammarSymbols: 64,
		AnalysisWorkers:   2,
		cycleAnalysis:     AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05},
	}, realClock{}, inj)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trace := chaosTrace(i+1, 50_000)
			for {
				if err := sp.Shard(i).AddAll(trace); err != nil {
					return // ErrClosed: the race landed
				}
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond) // let cycles queue behind slow analyses

	closed := make(chan struct{})
	go func() {
		sp.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return with analyses in flight")
	}
	wg.Wait()
	checkCycleInvariant(t, sp.Stats())
	waitGoroutines(t, base)
}

// TestChaosDoubleCloseBlockedProducers parks Block producers on rings the
// injector holds permanently full, then closes the profile twice: every
// parked Add must fail over to ErrClosed, both Closes must return, and no
// goroutine may leak.
func TestChaosDoubleCloseBlockedProducers(t *testing.T) {
	base := runtime.NumGoroutine()
	hooks := &fault.Hooks{RingFullFn: func(int) bool { return true }}
	sp := startProfile(t, ShardedConfig{Shards: 2, Policy: Block}, realClock{}, hooks)

	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The ring is never acceptable, so this Add parks until Close.
			errs <- sp.Shard(i % 2).Add(Ref{PC: i, Addr: uint64(i)})
		}(i)
	}
	time.Sleep(5 * time.Millisecond) // let the producers park

	closed := make(chan struct{})
	go func() {
		sp.Close()
		sp.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("double Close did not return with producers parked on full rings")
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("parked Add returned %v, want ErrClosed", err)
		}
	}
	waitGoroutines(t, base)
}

// TestConcurrentSwapsSerialized exercises the Swap build mutex: racing
// retrains from many goroutines must each publish exactly once (the swap
// count is exact) while observers keep stepping, under -race.
func TestConcurrentSwapsSerialized(t *testing.T) {
	const swappers, swapsEach = 8, 50
	trace := chaosTrace(1, 2000)
	streams := []Stream{{Refs: trace[:12], Heat: 100}}
	cm, err := NewConcurrentMatcher(streams, 2)
	if err != nil {
		t.Fatal(err)
	}
	cm.EnableAccuracyTracking(0)

	stop := make(chan struct{})
	var obs sync.WaitGroup
	obs.Add(1)
	go func() {
		defer obs.Done()
		for {
			select {
			case <-stop:
				return
			default:
				observeAll(cm, trace)
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < swappers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < swapsEach; k++ {
				var set []Stream
				if (g+k)%2 == 0 {
					set = streams
				}
				if err := cm.Swap(set); err != nil {
					t.Errorf("Swap: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	obs.Wait()

	if got := cm.Swaps(); got != swappers*swapsEach {
		t.Errorf("Swaps=%d, want exactly %d", got, swappers*swapsEach)
	}
	// The matcher is still serviceable after the storm.
	cm.Reset()
	observeAll(cm, trace)
	if cm.Observations() == 0 {
		t.Error("matcher stopped observing after concurrent swaps")
	}
}

// TestHotStreamsReportsFlushStall pins the quiescent reader's verdict: a
// stalled consumer (its drain lock held without progress) surfaces as an
// error from HotStreams once the clock passes flushStallTimeout.
func TestHotStreamsReportsFlushStall(t *testing.T) {
	sp := newShardedProfile(ShardedConfig{Shards: 1}) // consumers intentionally not started
	clk := newFakeClock()
	sp.clk = clk
	if err := sp.Shard(0).Add(Ref{PC: 1, Addr: 8}); err != nil {
		t.Fatal(err)
	}
	holdDrain(t, sp.Shard(0))
	err := verdictAt(t, clk, flushStallTimeout, func() error {
		_, err := sp.HotStreams(DefaultAnalysisConfig())
		return err
	})
	if !errors.Is(err, ErrFlushStalled) {
		t.Fatalf("HotStreams with a dead consumer = %v, want ErrFlushStalled", err)
	}
}

// TestFlushStallsOnWedgedPool wedges the analysis pool — its one worker held
// in an analysis — until the consumer blocks on the full analysis queue with its drain lock held, and
// checks that Flush, which never waits on the analysis queue, gives up with
// ErrFlushStalled exactly when the clock passes flushStallTimeout. Drop
// keeps the producer from waiting behind the wedge as well.
func TestFlushStallsOnWedgedPool(t *testing.T) {
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	hooks := &fault.Hooks{AnalysisFn: func(int) fault.Outcome {
		<-release
		return fault.Outcome{}
	}}
	clk := newFakeClock()
	sp := startProfile(t, ShardedConfig{
		Shards:            1,
		Policy:            Drop,
		MaxGrammarSymbols: 64,
		AnalysisWorkers:   1,
		cycleAnalysis:     AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05},
	}, clk, hooks)
	// Enough cycles for one to wedge the worker, two to fill the queue, and
	// more whose enqueue can never complete.
	if err := sp.AddBatch(0, chaosTrace(1, 4096)); err != nil {
		t.Fatal(err)
	}
	s := sp.Shard(0)
	eventually(t, "consumer blocked on the full analysis queue", func() bool { return s.pending.Load() == 4 })
	if err := verdictAt(t, clk, flushStallTimeout, sp.Flush); !errors.Is(err, ErrFlushStalled) {
		t.Errorf("Flush with a wedged pool = %v, want ErrFlushStalled", err)
	}
	close(release)
	sp.Close()
	st := sp.Stats()
	checkCycleInvariant(t, st)
	if st.Consumed != st.Pushed {
		t.Errorf("consumed %d of %d pushed references after Close", st.Consumed, st.Pushed)
	}
	waitGoroutines(t, base)
}

// oneCycleProfile returns a profile of the service's per-tenant shape, on
// clock clk, whose analyses consult hook, fed references that fill its
// 64-symbol grammar budget exactly once: one cycle goes to the analysis
// pool, and the grammar left behind is small.
func oneCycleProfile(t *testing.T, hook func(int) fault.Outcome, clk clock) *ShardedProfile {
	t.Helper()
	sp := startProfile(t, ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		AnalysisWorkers:   1,
	}, clk, &fault.Hooks{AnalysisFn: hook})
	refs := make([]Ref, 100)
	for i := range refs {
		refs[i] = Ref{PC: i, Addr: uint64(i) * 64}
	}
	if err := sp.AddBatch(0, refs); err != nil {
		t.Fatal(err)
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sp.Stats().Resets; got != 1 {
		t.Fatalf("%d grammar cycles, want exactly 1", got)
	}
	return sp
}

// TestHotStreamsReportsAnalysisStall wedges the analysis pool's one worker
// on the profile's only cycle: HotStreams must give up with ErrAnalysisStalled once the clock passes
// flushStallTimeout, not before, instead of waiting for the analysis
// forever.
func TestHotStreamsReportsAnalysisStall(t *testing.T) {
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	clk := newFakeClock()
	sp := oneCycleProfile(t, func(int) fault.Outcome {
		<-release
		return fault.Outcome{}
	}, clk)
	err := verdictAt(t, clk, flushStallTimeout, func() error {
		_, err := sp.HotStreams(DefaultAnalysisConfig())
		return err
	})
	if !errors.Is(err, ErrAnalysisStalled) {
		t.Errorf("HotStreams with a wedged pool = %v, want ErrAnalysisStalled", err)
	}
	close(release)
	sp.Close()
	st := sp.Stats()
	checkCycleInvariant(t, st)
	if st.CyclesAnalyzed != 1 {
		t.Errorf("%d cycles analyzed after the wedge was released, want 1", st.CyclesAnalyzed)
	}
	waitGoroutines(t, base)
}
