// Package ring provides a bounded single-producer single-consumer queue.
//
// ShardedProfile feeds each profile shard through one of these rings: the
// producing goroutine owns the tail, the consuming goroutine owns the head,
// and each side re-reads the other's index only when its cached copy says
// the ring looks full (producer) or empty (consumer). Under Go's memory
// model the atomic head/tail loads and stores order the slot accesses, so
// the queue is race-detector clean without locks. No operation waits: the
// caller of a refused push or an empty pop decides how to wait.
package ring

import "sync/atomic"

// pad keeps the producer- and consumer-owned fields on separate cache lines
// so the two sides do not false-share.
type pad [64]byte

// SPSC is a bounded lock-free queue for exactly one producer goroutine and
// one consumer goroutine. The zero value is not usable; call New.
type SPSC[T any] struct {
	buf  []T
	mask uint64

	_         pad
	head      atomic.Uint64 // next slot to read; owned by the consumer
	tailCache uint64        // consumer's last view of tail
	_         pad
	tail      atomic.Uint64 // next slot to write; owned by the producer
	headCache uint64        // producer's last view of head
	_         pad
}

// New returns an empty ring holding at least capacity elements (rounded up
// to a power of two, minimum 2).
func New[T any](capacity int) *SPSC[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Cap returns the ring's capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// Len returns the number of queued elements. It may be called from either
// side (or a third observer) and is approximate under concurrency, but is
// always within [0, Cap]: head is snapshotted before tail, so a pop racing
// between the two loads can only make the difference smaller than the true
// occupancy, never negative, and a racing push can only overshoot up to Cap.
func (q *SPSC[T]) Len() int {
	h := q.head.Load()
	t := q.tail.Load()
	// tail only grows, and head <= tail held when h was read, so t >= h and
	// the subtraction cannot underflow. Pushes landing between the two loads
	// can still inflate the difference past the capacity; clamp.
	n := t - h
	if n > uint64(len(q.buf)) {
		n = uint64(len(q.buf))
	}
	return int(n)
}

// PushBatch enqueues up to len(src) elements and returns how many fit,
// publishing them with a single tail store — the producer-side counterpart
// of PopBatch, amortizing the release fence and head refresh over a burst.
// A one-element batch is a single push. Producer side only.
func (q *SPSC[T]) PushBatch(src []T) int {
	t := q.tail.Load()
	free := uint64(len(q.buf)) - (t - q.headCache)
	if free < uint64(len(src)) {
		q.headCache = q.head.Load()
		free = uint64(len(q.buf)) - (t - q.headCache)
		if free == 0 {
			return 0
		}
	}
	n := uint64(len(src))
	if n > free {
		n = free
	}
	// The run occupies at most two contiguous spans of the power-of-two
	// buffer (before and after the wrap point); two copy calls replace the
	// per-element masked stores and let the runtime move words in bulk.
	start := t & q.mask
	first := copy(q.buf[start:], src[:n])
	copy(q.buf, src[first:n])
	q.tail.Store(t + n)
	return int(n)
}

// PopBatch dequeues up to len(dst) elements into dst and returns the count.
// Consumer side only.
func (q *SPSC[T]) PopBatch(dst []T) int {
	h := q.head.Load()
	avail := q.tailCache - h
	if avail == 0 {
		q.tailCache = q.tail.Load()
		avail = q.tailCache - h
		if avail == 0 {
			return 0
		}
	}
	n := uint64(len(dst))
	if n > avail {
		n = avail
	}
	// Mirror of PushBatch: at most two contiguous spans around the wrap.
	start := h & q.mask
	first := copy(dst[:n], q.buf[start:])
	copy(dst[first:n], q.buf)
	q.head.Store(h + n)
	return int(n)
}
