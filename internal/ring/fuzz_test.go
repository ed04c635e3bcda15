package ring

import (
	"testing"
)

// FuzzBatchInterleavings drives an SPSC ring through a fuzz-chosen sequence
// of PushBatch/PopBatch calls against a plain-slice model:
// every element must come out exactly once, in FIFO order, and the
// accepted/returned counts and Len must agree with the model at every step.
// Single-goroutine by design — the SPSC contract allows one producer and one
// consumer, so a sequential interleaving of both sides is a valid schedule,
// and it makes every fuzz input fully deterministic and replayable.
func FuzzBatchInterleavings(f *testing.F) {
	f.Add(uint8(4), []byte{0x05, 0x83, 0x02, 0x81})
	f.Add(uint8(1), []byte{0x01, 0x81, 0x01, 0x81, 0x01, 0x81})
	f.Add(uint8(16), []byte{0x20, 0xa0, 0x20, 0xa0})
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		q := New[uint64](int(capacity))
		var model []uint64
		next := uint64(1) // values are a strictly increasing sequence

		for _, op := range ops {
			// High bit selects pop vs push; low 7 bits are the batch size
			// (0 exercises the degenerate empty batch).
			n := int(op & 0x7f)
			if op&0x80 == 0 {
				if n == 0 {
					// Push a one-element batch instead.
					full := len(model) == q.Cap()
					if push1(q, next) {
						if full {
							t.Fatalf("one-element push succeeded with %d/%d queued", len(model), q.Cap())
						}
						model = append(model, next)
						next++
					} else if !full {
						t.Fatalf("one-element push failed with %d/%d queued", len(model), q.Cap())
					}
					continue
				}
				src := make([]uint64, n)
				for i := range src {
					src[i] = next + uint64(i)
				}
				pushed := q.PushBatch(src)
				free := q.Cap() - len(model)
				want := n
				if want > free {
					want = free
				}
				if pushed != want {
					t.Fatalf("PushBatch(%d) = %d with %d free", n, pushed, free)
				}
				model = append(model, src[:pushed]...)
				next += uint64(pushed)
			} else {
				if n == 0 {
					v, ok := pop1(q)
					if ok != (len(model) > 0) {
						t.Fatalf("one-element pop ok=%v with %d queued", ok, len(model))
					}
					if ok {
						if v != model[0] {
							t.Fatalf("one-element pop = %d, want %d (FIFO)", v, model[0])
						}
						model = model[1:]
					}
					continue
				}
				dst := make([]uint64, n)
				popped := q.PopBatch(dst)
				// The consumer serves from its cached tail view (a lower
				// bound on occupancy) and refreshes only when that view says
				// empty, so popped may fall short of min(n, queued) — but
				// never exceed it, and never be zero while elements remain.
				want := n
				if want > len(model) {
					want = len(model)
				}
				if popped > want {
					t.Fatalf("PopBatch(%d) = %d with only %d queued", n, popped, len(model))
				}
				if popped == 0 && want > 0 {
					t.Fatalf("PopBatch(%d) = 0 with %d queued", n, len(model))
				}
				for i := 0; i < popped; i++ {
					if dst[i] != model[i] {
						t.Fatalf("PopBatch element %d = %d, want %d (FIFO)", i, dst[i], model[i])
					}
				}
				model = model[popped:]
			}
			if got := q.Len(); got != len(model) {
				t.Fatalf("Len = %d, model has %d", got, len(model))
			}
		}

		// Drain: everything still queued must come out in order.
		for i := 0; len(model) > 0; i++ {
			v, ok := pop1(q)
			if !ok {
				t.Fatalf("ring empty with %d modeled elements left", len(model))
			}
			if v != model[0] {
				t.Fatalf("drain element = %d, want %d", v, model[0])
			}
			model = model[1:]
		}
		if v, ok := pop1(q); ok {
			t.Fatalf("ring yielded %d after the model drained", v)
		}
	})
}
