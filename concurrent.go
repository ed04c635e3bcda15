package hotprefetch

import (
	"sync"
	"sync/atomic"

	"hotprefetch/internal/obs"
)

// ConcurrentMatcher is a Predictor safe for use by multiple goroutines, with
// hot swapping of the matched stream set and the one prefetch-accuracy
// ledger every predictor is measured by. Historically it wrapped only the
// DFSM matcher — the name stuck — but any registered Predictor (see
// RegisterPredictor) can be published through it; NewConcurrentMatcher
// installs the default DFSM.
//
// The current predictor is published through an atomic pointer: Swap builds
// the replacement entirely off to the side and installs it with one short
// lock-protected store, so Observe never waits on a retraining build and
// never sees a torn or half-compiled table — the paper's §5
// de-optimize/re-optimize transition without a stop-the-world on the
// detection path. The step mutex guards the predictor's rolling match state,
// the accuracy ledger and the observation count; the common case is a short
// critical section around an array-indexed Observe. The mutex's Lock and
// Unlock are an Observe's only atomic read-modify-writes: the count is a
// plain field under the lock, and the ledger is a flat table sized once.
//
// All callers share one match state — observations interleave into a single
// logical reference stream, exactly as if one goroutine called Observe with
// the merged order. To match per-thread streams independently, give each
// thread its own Predictor instead.
type ConcurrentMatcher struct {
	mu       sync.Mutex // serializes stepping of the current predictor, the ledger and observed
	cur      atomic.Pointer[predEntry]
	observed uint64 // references observed; guarded by mu
	swaps    atomic.Uint64

	// buildMu serializes Swap against concurrent Swap calls: two racing
	// retrains used to publish in either order (double-counting swaps while
	// leaving an arbitrary winner installed); the build mutex — deliberately
	// not the step lock, so Observe still never waits on a build — makes
	// publication last-writer-deterministic: each Swap's build and store are
	// atomic with respect to other Swaps.
	buildMu sync.Mutex

	// ledger accounts prefetch accuracy across every predictor this matcher
	// publishes (see AccuracyBooks), from construction on. Guarded by mu.
	ledger *ledger

	// obs, when set (see SetObserver), receives a KindMatcherSwap event for
	// each published retrain. AttachMatcher sets it so swaps land in the
	// same trace as the grammar cycles that triggered them.
	obs atomic.Pointer[obs.Observer]

	// headLen is the prefix length every instance this matcher publishes is
	// built with: the one given at construction, which every Swap keeps.
	headLen int
}

// predEntry is one published predictor: the implementation, its registry
// name, and the size of the stream set it was trained on (the DFSM exposes
// real state counts; the stream count is the stats fallback for
// implementations that do not).
type predEntry struct {
	name    string
	p       Predictor
	streams int
}

// ledger accounts prefetch accuracy: every address the published predictor
// issues becomes outstanding, and an outstanding address observed by a
// later reference counts as a hit — the paper's Table 2 accuracy metric
// (prefetches actually used by the program vs. prefetches issued).
// Outstanding addresses are bounded by a FIFO window so a stale predictor
// cannot grow the set without limit; evicted addresses simply never hit.
// An address leaves the window when the slot of its newest issue comes up:
// one that was hit and issued again lives a full window from its second
// issue, whatever its first slot still names.
//
// The books balance exactly: every issued address is either coalesced with
// an already-outstanding copy at issue time, observed later (hit), evicted
// by the window, retired unobserved at a Swap, or still outstanding (in
// set). Coalesced, evicted and retired addresses together are dropped, so
// issued == hits + outstanding + dropped.
//
// The outstanding set is a flat open-addressed table allocated once, with
// the matcher: Observe probes it on every reference and inserts into it on
// every issued prefetch, so it sits on the detection path and must neither
// allocate nor rehash. A slot holds the FIFO index, plus one,
// of an outstanding address's newest issue, and a probe compares addresses
// through the FIFO; zero marks an empty slot. Every outstanding address
// holds its own FIFO slot, so the set never holds more than window
// addresses; its power-of-two capacity of at least twice the window keeps
// it at most half full, and it never grows. Linear probing from a
// multiplicative hash finds an address; deletion shifts the rest of its
// probe cluster back instead of leaving a tombstone (as the grammar's
// digram table does).
type ledger struct {
	slots []uint32 // open-addressed outstanding set: FIFO index + 1; 0 = empty
	shift uint     // 64 - log2(len(slots)): the hash keeps the top bits
	n     int      // outstanding addresses

	fifo []uint64 // issued addresses in issue order, a ring of window slots
	head int      // next eviction slot

	issued  uint64
	hits    uint64
	dropped uint64
}

// ledgerWindow bounds the outstanding-address set of every ConcurrentMatcher:
// the FIFO holds 4096 addresses (32 KiB) and the outstanding set 8192
// four-byte slots (32 KiB).
const ledgerWindow = 4096

func newLedger(window int) *ledger {
	size, shift := 2, uint(63)
	for size < 2*window {
		size <<= 1
		shift--
	}
	return &ledger{
		slots: make([]uint32, size),
		shift: shift,
		fifo:  make([]uint64, 0, window),
	}
}

// home returns an address's home slot: Fibonacci hashing, the top bits of
// the product, so addresses that differ only above their low zero bits
// (cache-line and word alignment) still spread.
func (l *ledger) home(a uint64) uint64 {
	return (a * 0x9E3779B97F4A7C15) >> l.shift
}

// find returns the slot holding outstanding address a, or the empty slot
// that ends a's probe sequence.
func (l *ledger) find(a uint64) uint64 {
	mask := uint64(len(l.slots) - 1)
	i := l.home(a)
	for l.slots[i] != 0 && l.fifo[l.slots[i]-1] != a {
		i = (i + 1) & mask
	}
	return i
}

// removeAt takes the address in slot i out of the outstanding set. The
// entries after it in its probe cluster shift back over the hole so each
// stays reachable from its home slot.
func (l *ledger) removeAt(i uint64) {
	mask := uint64(len(l.slots) - 1)
	for j := (i + 1) & mask; l.slots[j] != 0; j = (j + 1) & mask {
		if (j-l.home(l.fifo[l.slots[j]-1]))&mask >= (j-i)&mask {
			l.slots[i] = l.slots[j]
			i = j
		}
	}
	l.slots[i] = 0
	l.n--
}

// observeThenIssue credits a hit if addr is outstanding, then records the
// prefetches that observation fired. Observing first means a reference
// never hits a prefetch triggered by itself. Every address counts as
// issued; an address already outstanding is not duplicated in the window
// (one future observation clears it either way).
func (l *ledger) observeThenIssue(addr uint64, issued []uint64) {
	if l.n > 0 {
		if i := l.find(addr); l.slots[i] != 0 {
			l.removeAt(i)
			l.hits++
		}
	}
	l.issued += uint64(len(issued))
	for _, a := range issued {
		i := l.find(a)
		if l.slots[i] != 0 {
			l.dropped++ // coalesced
			continue
		}
		slot := len(l.fifo)
		if slot < cap(l.fifo) {
			l.fifo = append(l.fifo, a)
		} else {
			// Window full: the oldest slot's address is evicted if this
			// slot is its newest issue and it is still outstanding. A slot
			// whose address was hit, evicted, or issued again since retires
			// nothing.
			slot = l.head
			if j := l.find(l.fifo[slot]); l.slots[j] == uint32(slot+1) {
				l.removeAt(j)
				l.dropped++ // evicted
			}
			l.fifo[slot] = a
			l.head++
			if l.head == len(l.fifo) {
				l.head = 0
			}
			i = l.find(a) // the eviction may have shifted a's probe sequence
		}
		l.slots[i] = uint32(slot + 1)
		l.n++
	}
}

// retireOutstanding drops the whole outstanding window unobserved: a
// swapped-in predictor starts with nothing outstanding, so the prefetches
// of the instance it replaced can no longer hit. The cumulative counters
// carry on.
func (l *ledger) retireOutstanding() {
	l.dropped += uint64(l.n)
	clear(l.slots)
	l.n = 0
	l.fifo = l.fifo[:0]
	l.head = 0
}

// SetObserver points the matcher's event emission at o (nil detaches).
// ShardedProfile.AttachMatcher calls this with the profile's Observer.
func (c *ConcurrentMatcher) SetObserver(o *obs.Observer) {
	c.obs.Store(o)
}

// NewConcurrentMatcher builds the prefix-matching DFSM for streams (see
// NewMatcher) and wraps it for concurrent use. An empty (or nil) stream set
// is valid and yields a pass-through machine that matches nothing — the
// deoptimized state of the paper's runtime, where no detection code runs:
// every observation costs 0 comparisons and no prefetch ever fires.
func NewConcurrentMatcher(streams []Stream, headLen int) (*ConcurrentMatcher, error) {
	return NewConcurrentPredictor(DefaultPredictor, streams, headLen)
}

// NewConcurrentPredictor builds a trained instance of the named registered
// predictor (see RegisterPredictor) and wraps it for concurrent use. The
// empty-stream-set contract matches NewConcurrentMatcher: a pass-through
// predictor that never prefetches.
func NewConcurrentPredictor(name string, streams []Stream, headLen int) (*ConcurrentMatcher, error) {
	p, err := NewPredictor(name, streams, headLen)
	if err != nil {
		return nil, err
	}
	c := &ConcurrentMatcher{headLen: headLen, ledger: newLedger(ledgerWindow)}
	c.cur.Store(&predEntry{name: name, p: p, streams: len(streams)})
	return c, nil
}

// Observe consumes one data reference; see Predictor. The returned prefetch
// slice aliases the predictor's state tables and must not be mutated.
//
// Observe loads the published predictor under the step lock: a concurrent
// Swap either lands before (this reference drives the new predictor from its
// start state) or after (it drove the old one, whose tables remain valid),
// but never mid-step.
func (c *ConcurrentMatcher) Observe(r Ref) (prefetch []uint64, comparisons int) {
	c.mu.Lock()
	prefetch, comparisons = c.cur.Load().p.Observe(r)
	c.ledger.observeThenIssue(r.Addr, prefetch)
	c.observed++
	c.mu.Unlock()
	return prefetch, comparisons
}

// Swap retrains the matcher on a new stream set: it builds a fresh instance
// of the published predictor implementation with the head length the
// matcher was constructed with — without holding the step lock, so Observe
// proceeds against the old instance throughout the build — and publishes it
// positioned at its start state. Swapping in an empty stream set installs
// the pass-through instance (deoptimization). On error the current
// predictor is left in place. Concurrent swaps are serialized by a build
// mutex, so each retrain's build and publication are atomic with respect to
// other retrains and the swap count is exact.
//
// Publication retires the ledger's outstanding window (see AccuracyBooks):
// the new instance is judged only on its own prefetches, while the
// cumulative counters carry on.
func (c *ConcurrentMatcher) Swap(streams []Stream) error {
	c.buildMu.Lock()
	defer c.buildMu.Unlock()
	name := c.cur.Load().name
	p, err := NewPredictor(name, streams, c.headLen)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.ledger.retireOutstanding()
	c.cur.Store(&predEntry{name: name, p: p, streams: len(streams)})
	c.mu.Unlock()
	c.swaps.Add(1)
	if o := c.obs.Load(); o != nil {
		// Value carries the new instance's stream count: zero marks a
		// deoptimizing swap to the pass-through predictor.
		o.Emit(obs.KindMatcherSwap, -1, uint64(len(streams)))
	}
	return nil
}

// Predictor returns the registry name of the published predictor
// implementation.
func (c *ConcurrentMatcher) Predictor() string { return c.cur.Load().name }

// AccuracyCounters returns the cumulative prefetch addresses issued and hit
// across all predictors this matcher has published (swaps included): every
// address Observe returns counts as issued, and an issued address observed
// by a later Observe before the 4096-address window evicts it counts as a
// hit: the paper's Table 2 accuracy metric (useful prefetches over
// prefetches issued), measured online.
func (c *ConcurrentMatcher) AccuracyCounters() (issued, hits uint64) {
	issued, hits, _, _ = c.AccuracyBooks()
	return issued, hits
}

// AccuracyBooks returns the full ledger: addresses issued, the subset
// observed (hits), the subset still outstanding in the window, and the
// subset dropped unobserved (window evictions, issues coalesced with an
// already-outstanding copy, and the outstanding window retired by each
// Swap). The books balance exactly at every read:
// issued == hits + outstanding + dropped.
func (c *ConcurrentMatcher) AccuracyBooks() (issued, hits, outstanding, dropped uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.ledger
	return l.issued, l.hits, uint64(l.n), l.dropped
}

// Observations returns the number of references observed so far, for service
// stats (see ShardedProfile.AttachMatcher). It reads the count under the
// step lock, so the count costs Observe no atomic of its own.
func (c *ConcurrentMatcher) Observations() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.observed
}

// Swaps returns the number of Swap retrainings published so far.
func (c *ConcurrentMatcher) Swaps() uint64 { return c.swaps.Load() }

// Reset returns the matcher to its start state (nothing matched).
func (c *ConcurrentMatcher) Reset() {
	c.mu.Lock()
	c.cur.Load().p.Reset()
	c.mu.Unlock()
}

// NumStates returns the number of DFSM states, including the start state.
// For predictor implementations without a state machine it approximates:
// 1 (pass-through) when trained on no streams, stream count + 1 otherwise —
// preserving the "NumStates() > 1 means trained" test every caller uses.
func (c *ConcurrentMatcher) NumStates() int {
	e := c.cur.Load()
	if m, ok := e.p.(*Matcher); ok {
		return m.NumStates()
	}
	if e.streams == 0 {
		return 1
	}
	return e.streams + 1
}

// NumTransitions returns the number of explicit DFSM transitions (zero for
// non-DFSM predictors).
func (c *ConcurrentMatcher) NumTransitions() int {
	if m, ok := c.cur.Load().p.(*Matcher); ok {
		return m.NumTransitions()
	}
	return 0
}

// PCs returns the sorted instruction addresses needing detection code (nil
// for non-DFSM predictors, which observe every reference).
func (c *ConcurrentMatcher) PCs() []int {
	if m, ok := c.cur.Load().p.(*Matcher); ok {
		return m.PCs()
	}
	return nil
}
