package hotprefetch

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a clock that moves only when a test advances it. Its timers
// and tickers fire inside Advance, so a verdict that sleeps on the clock
// lands exactly when virtual time passes its deadline, never before.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
	added  *sync.Cond // broadcast whenever a timer or ticker is added
}

// fakeTimer is one pending AfterFunc (f set) or ticker (c and period set).
type fakeTimer struct {
	at     time.Time
	f      func()
	c      chan time.Time
	period time.Duration
}

func newFakeClock() *fakeClock {
	f := &fakeClock{now: time.Date(2002, 6, 17, 0, 0, 0, 0, time.UTC)}
	f.added = sync.NewCond(&f.mu)
	return f
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) AfterFunc(d time.Duration, fn func()) func() bool {
	if d <= 0 {
		go fn()
		return func() bool { return false }
	}
	t := f.add(&fakeTimer{at: f.Now().Add(d), f: fn})
	return func() bool { return f.remove(t) }
}

func (f *fakeClock) NewTicker(d time.Duration) (<-chan time.Time, func()) {
	t := f.add(&fakeTimer{at: f.Now().Add(d), c: make(chan time.Time, 1), period: d})
	return t.c, func() { f.remove(t) }
}

func (f *fakeClock) add(t *fakeTimer) *fakeTimer {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.timers = append(f.timers, t)
	f.added.Broadcast()
	return t
}

func (f *fakeClock) remove(t *fakeTimer) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := slices.Index(f.timers, t)
	if i < 0 {
		return false
	}
	f.timers = slices.Delete(f.timers, i, i+1)
	return true
}

// Advance moves the clock forward by d, fires every ticker that falls due,
// and runs every AfterFunc that falls due before it returns.
func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	var due []func()
	kept := f.timers[:0]
	for _, t := range f.timers {
		switch {
		case t.at.After(f.now):
			kept = append(kept, t)
		case t.f != nil:
			due = append(due, t.f)
		default:
			select {
			case t.c <- f.now:
			default:
			}
			for !t.at.After(f.now) {
				t.at = t.at.Add(t.period)
			}
			kept = append(kept, t)
		}
	}
	clear(f.timers[len(kept):])
	f.timers = kept
	f.mu.Unlock()
	for _, fn := range due {
		fn()
	}
}

// awaitTimers blocks until at least n timers or tickers are pending, that
// is, until that many goroutines wait on the clock.
func (f *fakeClock) awaitTimers(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.timers) < n {
		f.added.Wait()
	}
}

// pending returns how many timers and tickers have yet to fire.
func (f *fakeClock) pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.timers)
}

// fakeClockProfile returns a started profile configured by cfg whose clock
// is a fake the test advances.
func fakeClockProfile(t *testing.T, cfg ShardedConfig) (*ShardedProfile, *fakeClock) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	sp := newShardedProfile(cfg)
	clk := newFakeClock()
	sp.clk = clk
	sp.start()
	return sp, clk
}

// verdictAt runs call on its own goroutine, where it must come to sleep on
// clk toward a verdict due d after clk's current time, and checks that the
// verdict waits for the clock: with d less a nanosecond passed, the call
// still sleeps and its timer is pending; one nanosecond more and it
// returns. verdictAt returns the call's error.
func verdictAt(t *testing.T, clk *fakeClock, d time.Duration, call func() error) error {
	t.Helper()
	res := make(chan error, 1)
	go func() { res <- call() }()
	clk.awaitTimers(1)
	clk.Advance(d - time.Nanosecond)
	select {
	case err := <-res:
		t.Fatalf("gave up %v into a %v wait: %v", d-time.Nanosecond, d, err)
	default:
	}
	if n := clk.pending(); n != 1 {
		t.Fatalf("%d timers pending %v into a %v wait, want the waiter's 1", n, d-time.Nanosecond, d)
	}
	clk.Advance(time.Nanosecond)
	select {
	case err := <-res:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("no verdict 10s after the clock passed %v", d)
		return nil
	}
}

// eventually polls cond until it holds, failing the test after 5 s. Tests
// use it to wait for a set-up state, never for a verdict.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 5s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestWaitqHammer races waiters against a notifier that toggles their
// condition. Each round the notifier flips the condition, notifies, and
// then waits, on a second waitq, until every waiter has seen the flip and
// acknowledged it; the waiters then wait for the next flip. A lost wakeup
// strands a waiter asleep with its condition true, the acknowledgements
// stop, and the watchdog fails the test.
func TestWaitqHammer(t *testing.T) {
	rounds := int64(5000)
	if testing.Short() {
		rounds = 500
	}
	for _, waiters := range []int{1, 8} {
		t.Run(fmt.Sprintf("waiters=%d", waiters), func(t *testing.T) {
			var flips, acks waitq
			var on atomic.Bool
			var acked atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < waiters; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := int64(1); r <= rounds; r++ {
						want := r%2 == 1
						flips.wait(func() bool { return on.Load() == want }, nil, time.Time{})
						acked.Add(1)
						acks.notify()
					}
				}()
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for r := int64(1); r <= rounds; r++ {
					on.Store(r%2 == 1)
					flips.notify()
					all := r * int64(waiters)
					acks.wait(func() bool { return acked.Load() >= all }, nil, time.Time{})
				}
			}()
			watchdog := time.NewTicker(time.Second)
			defer watchdog.Stop()
			last, still := int64(-1), 0
			for {
				select {
				case <-done:
					wg.Wait()
					if got, want := acked.Load(), rounds*int64(waiters); got != want {
						t.Fatalf("%d acknowledgements, want %d", got, want)
					}
					if flips.n.Load() != 0 || acks.n.Load() != 0 {
						t.Fatalf("waiters still announced after the run: %d, %d", flips.n.Load(), acks.n.Load())
					}
					return
				case <-watchdog.C:
					if a := acked.Load(); a != last {
						last, still = a, 0
					} else if still++; still >= 5 {
						t.Fatalf("no acknowledgement for 5s at %d of %d: a waiter is stranded (lost wakeup)",
							a, rounds*int64(waiters))
					}
				}
			}
		})
	}
}
