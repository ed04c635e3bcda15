package hotprefetch

import (
	"math/rand"
	"slices"
	"testing"
)

// refLedger is the accuracy ledger over a Go map: the same FIFO window,
// with each outstanding address mapped to the FIFO slot of its newest
// issue, so the window evicts an address only when that slot comes up. It
// is kept only as the reference the flat ledger is checked against.
type refLedger struct {
	set  map[uint64]int // outstanding address -> FIFO slot of its newest issue
	fifo []uint64
	head int

	issued  uint64
	hits    uint64
	dropped uint64
}

func newRefLedger(window int) *refLedger {
	return &refLedger{
		set:  make(map[uint64]int, window),
		fifo: make([]uint64, 0, window),
	}
}

func (l *refLedger) observeThenIssue(addr uint64, issued []uint64) {
	if _, ok := l.set[addr]; ok {
		l.hits++
		delete(l.set, addr)
	}
	l.issued += uint64(len(issued))
	for _, a := range issued {
		if _, ok := l.set[a]; ok {
			l.dropped++ // coalesced
			continue
		}
		slot := len(l.fifo)
		if slot < cap(l.fifo) {
			l.fifo = append(l.fifo, a)
		} else {
			slot = l.head
			if newest, live := l.set[l.fifo[slot]]; live && newest == slot {
				delete(l.set, l.fifo[slot])
				l.dropped++ // evicted
			}
			l.fifo[slot] = a
			l.head++
			if l.head == len(l.fifo) {
				l.head = 0
			}
		}
		l.set[a] = slot
	}
}

func (l *refLedger) retireOutstanding() {
	l.dropped += uint64(len(l.set))
	clear(l.set)
	l.fifo = l.fifo[:0]
	l.head = 0
}

// sameBooks fails t unless the flat ledger holds exactly the reference's
// books, outstanding set (each address at the slot of its newest issue)
// and FIFO window.
func sameBooks(t *testing.T, step int, got *ledger, want *refLedger) {
	t.Helper()
	if got.issued != want.issued || got.hits != want.hits ||
		got.n != len(want.set) || got.dropped != want.dropped {
		t.Fatalf("step %d: books (issued, hits, outstanding, dropped) = (%d, %d, %d, %d), reference (%d, %d, %d, %d)",
			step, got.issued, got.hits, got.n, got.dropped,
			want.issued, want.hits, len(want.set), want.dropped)
	}
	for a, slot := range want.set {
		if s := got.slots[got.find(a)]; s != uint32(slot+1) {
			t.Fatalf("step %d: address %#x outstanding at FIFO slot %d in the reference, flat set holds %d", step, a, slot, int(s)-1)
		}
	}
	if got.head != want.head || !slices.Equal(got.fifo, want.fifo) {
		t.Fatalf("step %d: window %v head %d, reference %v head %d", step, got.fifo, got.head, want.fifo, want.head)
	}
	if 2*got.n > len(got.slots) {
		t.Fatalf("step %d: %d outstanding in %d slots, more than half full", step, got.n, len(got.slots))
	}
}

// TestLedgerKeepsReissuedAddress issues A, hits it, issues it again, then
// issues window-1 other addresses: the window comes round to A's first slot
// while A is outstanding from its second, so A must stay outstanding until
// that second slot comes up.
func TestLedgerKeepsReissuedAddress(t *testing.T) {
	const window, a = 8, 0xa0
	got, want := newLedger(window), newRefLedger(window)
	step := func(addr uint64, issued ...uint64) {
		got.observeThenIssue(addr, issued)
		want.observeThenIssue(addr, issued)
		sameBooks(t, -1, got, want)
	}
	step(1, a)
	step(a, a) // hit, then issued again
	for i := uint64(0); i < window-1; i++ {
		step(2, 0x1000+i)
	}
	if got.slots[got.find(a)] == 0 || got.dropped != 0 {
		t.Fatalf("window came round to A's first slot: outstanding %v, dropped %d; want A outstanding, none dropped",
			got.slots[got.find(a)] != 0, got.dropped)
	}
	step(2, 0x2000) // A's second slot comes up
	if got.slots[got.find(a)] != 0 || got.dropped != 1 {
		t.Fatalf("window came round to A's newest slot: outstanding %v, dropped %d; want A evicted",
			got.slots[got.find(a)] != 0, got.dropped)
	}
}

// ledgerAddr maps a fuzz byte to an address: 64 cache lines in each of four
// regions far apart, so byte 0 is address 0, equal bytes collide exactly,
// and the flat set's hash sees both low and high address bits.
func ledgerAddr(b byte) uint64 {
	return uint64(b&63)<<6 | uint64(b>>6)<<62
}

// FuzzLedgerDifferential drives the flat ledger and the map reference
// through the same steps and requires identical books after every one. The
// input is a window byte (1..16) followed by steps: 0xff retires the
// outstanding window, as a Swap does; any other byte c is one observation,
// an observed address byte followed by c%8 issued address bytes. The seed
// corpus (testdata/fuzz/FuzzLedgerDifferential) covers window 1 with
// address 0, duplicates inside one issue list, window wrap, retirement
// mid-stream, and one long mixed stream in the widest window.
func FuzzLedgerDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		window := int(data[0]%16) + 1
		got, want := newLedger(window), newRefLedger(window)
		var issued []uint64
		step := 0
		for i := 1; i < len(data); step++ {
			c := data[i]
			i++
			if c == 0xff {
				got.retireOutstanding()
				want.retireOutstanding()
				sameBooks(t, step, got, want)
				continue
			}
			if i >= len(data) {
				return
			}
			addr := ledgerAddr(data[i])
			i++
			issued = issued[:0]
			for k := 0; k < int(c%8) && i < len(data); k++ {
				issued = append(issued, ledgerAddr(data[i]))
				i++
			}
			got.observeThenIssue(addr, issued)
			want.observeThenIssue(addr, issued)
			sameBooks(t, step, got, want)
		}
	})
}

// TestLedgerMatchesReferenceAtScale runs the default 4096-address window,
// the one Supervise enables, against the reference over a long random
// stream with retirements, so the flat set is checked at the size and
// load it runs at as well as in the fuzzer's small windows.
func TestLedgerMatchesReferenceAtScale(t *testing.T) {
	const window = 4096
	r := rand.New(rand.NewSource(1))
	got, want := newLedger(window), newRefLedger(window)
	addr := func() uint64 { return uint64(r.Intn(3*window)) << 6 }
	var issued []uint64
	for step := 0; step < 200_000; step++ {
		if r.Intn(20_000) == 0 {
			got.retireOutstanding()
			want.retireOutstanding()
			sameBooks(t, step, got, want)
			continue
		}
		issued = issued[:0]
		for k := r.Intn(8); k > 0; k-- {
			issued = append(issued, addr())
		}
		a := addr()
		got.observeThenIssue(a, issued)
		want.observeThenIssue(a, issued)
		if got.issued != want.issued || got.hits != want.hits ||
			got.n != len(want.set) || got.dropped != want.dropped || step%1000 == 0 {
			sameBooks(t, step, got, want)
		}
	}
	sameBooks(t, -1, got, want)
	if got.hits == 0 || got.dropped == 0 {
		t.Fatalf("stream never exercised the ledger: hits=%d dropped=%d", got.hits, got.dropped)
	}
}
