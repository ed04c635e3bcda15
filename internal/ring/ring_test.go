package ring

import (
	"runtime"
	"sync"
	"testing"
)

func TestFIFOOrder(t *testing.T) {
	q := New[int](8)
	if q.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", q.Cap())
	}
	for i := 0; i < 8; i++ {
		if !q.TryPush(i) {
			t.Fatalf("push %d failed on non-full ring", i)
		}
	}
	if q.TryPush(99) {
		t.Error("push succeeded on full ring")
	}
	for i := 0; i < 8; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v, want %d,true", v, ok, i)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Error("pop succeeded on empty ring")
	}
}

func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{0, 2}, {1, 2}, {3, 4}, {4, 4}, {1000, 1024}} {
		if got := New[byte](tc.ask).Cap(); got != tc.want {
			t.Errorf("New(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestConcurrentTransfer moves a large sequence through the ring with one
// producer and one consumer; run under -race this validates the
// happens-before edges between the two sides.
func TestConcurrentTransfer(t *testing.T) {
	n := uint64(50000)
	if testing.Short() {
		n = 5000
	}
	q := New[uint64](64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < n; i++ {
			for !q.TryPush(i) {
				runtime.Gosched()
			}
		}
	}()
	var next uint64
	buf := make([]uint64, 32)
	for next < n {
		k := q.PopBatch(buf)
		if k == 0 {
			if v, ok := q.TryPop(); ok {
				buf[0] = v
				k = 1
			} else {
				runtime.Gosched()
				continue
			}
		}
		for i := 0; i < k; i++ {
			if buf[i] != next {
				t.Fatalf("element %d = %d, want %d", next, buf[i], next)
			}
			next++
		}
	}
	wg.Wait()
	if q.Len() != 0 {
		t.Errorf("ring should be drained, Len = %d", q.Len())
	}
}

func TestLenCounts(t *testing.T) {
	q := New[int](8)
	if q.Len() != 0 {
		t.Fatalf("empty Len = %d, want 0", q.Len())
	}
	for i := 0; i < 5; i++ {
		q.TryPush(i)
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5", q.Len())
	}
	q.TryPop()
	q.TryPop()
	if q.Len() != 3 {
		t.Fatalf("Len after pops = %d, want 3", q.Len())
	}
}

// TestLenBoundsUnderRace regresses the Len bug where tail was loaded before
// head: a pop completing between the two loads made tail-head wrap negative
// (reported as a huge positive int after conversion). An observer goroutine
// samples Len while a producer and consumer churn the ring; every sample
// must land in [0, Cap].
func TestLenBoundsUnderRace(t *testing.T) {
	n := uint64(50000)
	if testing.Short() {
		n = 5000
	}
	q := New[uint64](4)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < n; i++ {
			for !q.TryPush(i) {
				runtime.Gosched()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for got := uint64(0); got < n; {
			if _, ok := q.TryPop(); ok {
				got++
			} else {
				runtime.Gosched()
			}
		}
	}()
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		if l := q.Len(); l < 0 || l > q.Cap() {
			t.Fatalf("Len = %d, outside [0, %d]", l, q.Cap())
		}
		runtime.Gosched()
	}
}

func TestPushBatch(t *testing.T) {
	q := New[int](8)
	if n := q.PushBatch(nil); n != 0 {
		t.Fatalf("PushBatch(nil) = %d, want 0", n)
	}
	if n := q.PushBatch([]int{0, 1, 2, 3, 4}); n != 5 {
		t.Fatalf("PushBatch = %d, want 5", n)
	}
	// Partial: only 3 slots remain.
	if n := q.PushBatch([]int{5, 6, 7, 8, 9}); n != 3 {
		t.Fatalf("PushBatch on nearly-full ring = %d, want 3", n)
	}
	if n := q.PushBatch([]int{99}); n != 0 {
		t.Fatalf("PushBatch on full ring = %d, want 0", n)
	}
	for i := 0; i < 8; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v, want %d,true", v, ok, i)
		}
	}
}

// TestPushBatchWraparound drives the batch write across the index wrap to
// check the modular slot arithmetic.
func TestPushBatchWraparound(t *testing.T) {
	q := New[int](4)
	next := 0
	buf := make([]int, 3)
	for round := 0; round < 10; round++ {
		batch := []int{next, next + 1, next + 2}
		if n := q.PushBatch(batch); n != 3 {
			t.Fatalf("round %d: PushBatch = %d, want 3", round, n)
		}
		next += 3
		if n := q.PopBatch(buf); n != 3 {
			t.Fatalf("round %d: PopBatch = %d, want 3", round, n)
		}
		for i, v := range buf {
			if v != next-3+i {
				t.Fatalf("round %d: buf[%d] = %d, want %d", round, i, v, next-3+i)
			}
		}
	}
}

// TestPushBatchConcurrentTransfer is TestConcurrentTransfer with batched
// pushes; under -race this validates the single tail store publishing a
// whole batch of slot writes.
func TestPushBatchConcurrentTransfer(t *testing.T) {
	n := uint64(50000)
	if testing.Short() {
		n = 5000
	}
	q := New[uint64](64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := make([]uint64, 16)
		for i := uint64(0); i < n; {
			k := uint64(len(batch))
			if k > n-i {
				k = n - i
			}
			for j := uint64(0); j < k; j++ {
				batch[j] = i + j
			}
			sent := uint64(0)
			for sent < k {
				m := q.PushBatch(batch[sent:k])
				if m == 0 {
					runtime.Gosched()
					continue
				}
				sent += uint64(m)
			}
			i += k
		}
	}()
	var next uint64
	buf := make([]uint64, 32)
	for next < n {
		k := q.PopBatch(buf)
		if k == 0 {
			runtime.Gosched()
			continue
		}
		for i := 0; i < k; i++ {
			if buf[i] != next {
				t.Fatalf("element %d = %d, want %d", next, buf[i], next)
			}
			next++
		}
	}
	wg.Wait()
}

func BenchmarkPushPop(b *testing.B) {
	q := New[uint64](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.TryPush(uint64(i))
		q.TryPop()
	}
}

// BenchmarkPushPopBatch is BenchmarkPushPop amortized over 256-element
// batches: one tail store and one head store per batch instead of per
// element. ns/op is per element.
func BenchmarkPushPopBatch(b *testing.B) {
	q := New[uint64](1024)
	src := make([]uint64, 256)
	dst := make([]uint64, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i += len(src) {
		q.PushBatch(src)
		q.PopBatch(dst)
	}
}
