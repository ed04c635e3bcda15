package hotprefetch

import (
	"sync"
	"sync/atomic"
	"time"
)

// waitq is the one way the ingest pipeline waits for a condition: a shard's
// consumer for references, a Block producer for ring room, Flush for the
// progress of a drain-lock holder, and HotStreams for the analysis pool.
// Any number of goroutines may wait on one waitq, each for its own
// condition; whoever makes a condition true calls notify afterwards.
//
// No wakeup is lost. A waiter announces itself (n.Add) under mu before it
// re-checks its condition, and c.Wait releases mu only once the waiter is
// queued; a notifier makes the condition true before it reads n. Both use
// sequentially consistent atomics, so either the re-check sees the
// condition, or the notifier sees the waiter and its broadcast, under mu,
// finds it queued. A notify with nobody waiting costs that one load and
// allocates nothing.
type waitq struct {
	n  atomic.Int32 // announced waiters
	mu sync.Mutex
	c  *sync.Cond // on mu; made by the first waiter
}

// wait returns true once cond holds, sleeping between checks until a
// notify, or false once clk passes a non-zero deadline with cond false.
// cond runs under mu: it must only read atomics (or TryLock), never block.
func (q *waitq) wait(cond func() bool, clk clock, deadline time.Time) bool {
	if cond() {
		return true
	}
	if !deadline.IsZero() {
		stop := clk.AfterFunc(deadline.Sub(clk.Now()), q.notify)
		defer stop()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.c == nil {
		q.c = sync.NewCond(&q.mu)
	}
	q.n.Add(1)
	defer q.n.Add(-1)
	for !cond() {
		if !deadline.IsZero() && !clk.Now().Before(deadline) {
			return false
		}
		q.c.Wait()
	}
	return true
}

// notify has every announced waiter re-check its condition. Call it after
// making a condition true.
func (q *waitq) notify() {
	if q.n.Load() != 0 {
		q.mu.Lock()
		q.c.Broadcast() // made before n was raised
		q.mu.Unlock()
	}
}

// clock is the one time source of a ShardedProfile. Profiles run on
// realClock; in-package tests substitute a fake they
// advance, so every stall verdict is tested at its production constant, in
// virtual time.
type clock interface {
	Now() time.Time
	// AfterFunc calls f on its own goroutine once d has passed, unless the
	// returned function stops it first.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// realClock is the wall clock.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) AfterFunc(d time.Duration, f func()) func() bool { return time.AfterFunc(d, f).Stop }
