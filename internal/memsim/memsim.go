// Package memsim simulates the two-level data-cache hierarchy of the paper's
// experimental platform (§4.1): a 16KB 4-way L1 data cache and a 256KB 8-way
// L2, both with 32-byte blocks, plus main memory.
//
// Substitution note (see DESIGN.md §2): the paper measures on real Pentium
// III hardware and issues prefetcht0 instructions. Go exposes neither cache
// hardware nor prefetch intrinsics, so this package models the relevant
// behaviour directly: set-associative LRU caches with per-access cycle
// costs, and a prefetch operation that fills both cache levels without
// blocking, becoming usable only after the fill latency has elapsed
// (MSHR-style in-flight tracking). Prefetch profitability — the quantity the
// paper's evaluation measures — is a function of exactly these mechanisms.
//
// Every figure and every trace replay runs through this simulator, so it is
// built from flat tables: each cache level is one slice of packed ways and
// the in-flight fills are one open-addressed table (see Hierarchy).
package memsim

import (
	"math/bits"

	"hotprefetch/internal/ref"
)

// Config describes the cache hierarchy geometry and latencies. All sizes are
// in bytes and must be powers of two; latencies are in cycles and are charged
// in addition to the instruction's base cost.
type Config struct {
	BlockSize int // cache block size in bytes
	L1Size    int // total L1 capacity in bytes
	L1Assoc   int // L1 associativity (ways)
	L2Size    int // total L2 capacity in bytes
	L2Assoc   int // L2 associativity (ways)

	L2HitLatency uint64 // extra cycles for an L1 miss that hits in L2
	MemLatency   uint64 // extra cycles for an access that misses both levels

	// MaxInflight bounds the number of outstanding prefetch fills
	// (MSHR-style). Prefetches issued beyond the limit are dropped, as a
	// real memory system would. Zero means unlimited. Demand misses are
	// never blocked.
	MaxInflight int
}

// DefaultConfig mirrors the paper's platform: 16KB 4-way L1D and 256KB 8-way
// L2 with 32-byte blocks (§4.1). The latencies approximate a 550MHz Pentium
// III: ~10 cycles to L2 and ~100 cycles to memory.
func DefaultConfig() Config {
	return Config{
		BlockSize:    32,
		L1Size:       16 << 10,
		L1Assoc:      4,
		L2Size:       256 << 10,
		L2Assoc:      8,
		L2HitLatency: 10,
		MemLatency:   100,
	}
}

// Validate reports whether the configuration is internally consistent.
// Sets are indexed by the low bits of the block number, so each level's set
// count must be a power of two, and sets × ways × BlockSize must make up its
// capacity exactly. A way keeps its block's tag without the block-offset
// and set-index bits and packs its flags into two of them, so a way must
// span at least 4 bytes (capacity / associativity).
func (c Config) Validate() error {
	check := func(name string, v int) error {
		if v <= 0 || v&(v-1) != 0 {
			return &ConfigError{Field: name, Value: v}
		}
		return nil
	}
	if err := check("BlockSize", c.BlockSize); err != nil {
		return err
	}
	if err := check("L1Size", c.L1Size); err != nil {
		return err
	}
	if err := check("L2Size", c.L2Size); err != nil {
		return err
	}
	if c.L1Assoc <= 0 || c.L2Assoc <= 0 {
		return &ConfigError{Field: "Assoc", Value: c.L1Assoc * c.L2Assoc}
	}
	geometry := func(name string, size, assoc int) error {
		sets := size / c.BlockSize / assoc
		if check(name, sets) != nil || sets*assoc*c.BlockSize != size || size/assoc < 1<<wayFlagBits {
			return &ConfigError{Field: name, Value: size}
		}
		return nil
	}
	if err := geometry("L1Size/Assoc", c.L1Size, c.L1Assoc); err != nil {
		return err
	}
	return geometry("L2Size/Assoc", c.L2Size, c.L2Assoc)
}

// ConfigError reports an invalid cache configuration field.
type ConfigError struct {
	Field string
	Value int
}

func (e *ConfigError) Error() string {
	return "memsim: invalid config field " + e.Field
}

// Stats accumulates access and prefetch counters for one simulation run.
type Stats struct {
	Loads  uint64
	Stores uint64

	L1Hits   uint64
	L1Misses uint64
	L2Hits   uint64 // L1 misses that hit in L2
	L2Misses uint64 // accesses that went to memory

	StallCycles uint64 // total extra cycles charged for misses and late prefetches

	Prefetches        uint64 // prefetch operations issued
	PrefetchDrops     uint64 // prefetches dropped at the outstanding-fill limit
	PrefetchDupes     uint64 // prefetches that hit in L1 (no work done)
	UsefulPrefetches  uint64 // prefetched blocks later touched by a demand access
	LatePrefetches    uint64 // demand accesses that arrived before the fill completed
	LateStallCycles   uint64 // cycles stalled waiting for in-flight prefetch fills
	PrefetchEvictions uint64 // prefetched-but-never-touched blocks evicted from L1
}

// MissRatio returns the fraction of demand accesses that missed in L1.
func (s Stats) MissRatio() float64 {
	total := s.L1Hits + s.L1Misses
	if total == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(total)
}

// Accesses returns the total number of demand accesses.
func (s Stats) Accesses() uint64 { return s.Loads + s.Stores }

// Observer is notified of every demand access after it has been applied to
// the hierarchy. Hardware prefetcher baselines (stride, Markov correlation)
// attach themselves as observers and issue Prefetch calls in response.
type Observer interface {
	// OnAccess is called once per demand access. l1Hit and l2Hit describe
	// where the access was satisfied (l2Hit is false for L1 hits).
	OnAccess(now uint64, pc int, addr uint64, l1Hit, l2Hit bool)
}

// A way is one packed word: the block's tag (the block number without its
// set-index bits) shifted above two flag bits. Every valid way carries
// wayValid, so a zero word is an invalid way. A prefetched way that no
// demand access has touched yet carries wayFresh; the first touch clears
// it, and from then on the way behaves as a demand-filled one.
const (
	wayValid    = 1 << 0
	wayFresh    = 1 << 1
	wayFlagBits = 2
)

// level is one set-associative cache: assoc consecutive ways per set, in
// MRU-first order, with the valid ways ahead of the invalid ones. A lookup
// moves the hit way to the front and an install pushes the back way out,
// shifting the ways between in place.
type level struct {
	ways    []uint64
	assoc   int
	setMask uint64
	setBits uint
}

func newLevel(size, blockSize, assoc int) level {
	sets := size / blockSize / assoc
	return level{
		ways:    make([]uint64, sets*assoc),
		assoc:   assoc,
		setMask: uint64(sets - 1),
		setBits: uint(bits.TrailingZeros(uint(sets))),
	}
}

// set returns block's set and the word a way holding block carries, fresh
// flag aside.
func (c *level) set(block uint64) ([]uint64, uint64) {
	base := int(block&c.setMask) * c.assoc
	return c.ways[base : base+c.assoc : base+c.assoc], block>>c.setBits<<wayFlagBits | wayValid
}

// find returns the index of the way in set that holds key, or -1.
func find(set []uint64, key uint64) int {
	for i, w := range set {
		if w&^wayFresh == key {
			return i
		}
	}
	return -1
}

// promote moves way i of set to the front (MRU) and returns its word.
func promote(set []uint64, i int) uint64 {
	w := set[i]
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = w
	return w
}

// install puts w in front of set (MRU) and returns the back (LRU) way it
// pushed out, zero if that way was invalid.
func install(set []uint64, w uint64) (victim uint64) {
	last := len(set) - 1
	victim, set[last] = set[last], w
	promote(set, last)
	return victim
}

// fill is one in-flight prefetch fill: the block and the cycle at which its
// fill completes.
type fill struct{ block, ready uint64 }

// fillTable holds the in-flight prefetch fills, as hardware keeps them in a
// small flat MSHR table: open addressing over a power-of-two slice of fills,
// linear probing from a Fibonacci hash, and deletion that shifts the rest
// of a probe cluster back instead of leaving a tombstone (as the root
// package's accuracy ledger and the grammar's digram table do). It doubles
// when it would pass half full. A slot whose block is 0 is empty, so block
// 0's fill is kept beside the slots.
type fillTable struct {
	slots []fill
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits
	n     int  // fills in flight, block 0's included

	zero      bool   // block 0 has a fill in flight
	zeroReady uint64 // and it completes at this cycle
}

func newFillTable() fillTable {
	return fillTable{slots: make([]fill, 64), shift: 64 - 6}
}

// home returns block b's home slot: Fibonacci hashing, the top bits of the
// product.
func (t *fillTable) home(b uint64) uint64 { return b * 0x9E3779B97F4A7C15 >> t.shift }

// find returns the slot holding nonzero block b, or the empty slot that
// ends b's probe sequence.
func (t *fillTable) find(b uint64) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := t.home(b)
	for t.slots[i].block != b && t.slots[i].block != 0 {
		i = (i + 1) & mask
	}
	return i
}

// take removes block b's fill, returning the cycle it completes at and
// whether b had one in flight.
func (t *fillTable) take(b uint64) (ready uint64, ok bool) {
	if b == 0 {
		ready, ok = t.zeroReady, t.zero
		if ok {
			t.zero = false
			t.n--
		}
		return ready, ok
	}
	i := t.find(b)
	if t.slots[i].block == 0 {
		return 0, false
	}
	ready = t.slots[i].ready
	t.deleteAt(i)
	return ready, true
}

// deleteAt empties slot i. The fills after it in its probe cluster shift
// back over the hole so each stays reachable from its home slot.
func (t *fillTable) deleteAt(i uint64) {
	mask := uint64(len(t.slots) - 1)
	for j := (i + 1) & mask; t.slots[j].block != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].block))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = fill{}
	t.n--
}

// raise records a fill of block b completing at ready, unless b already
// has one in flight that completes later.
func (t *fillTable) raise(b, ready uint64) {
	if b == 0 {
		if !t.zero {
			t.zero, t.zeroReady = true, ready
			t.n++
		} else if ready > t.zeroReady {
			t.zeroReady = ready
		}
		return
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	i := t.find(b)
	if s := &t.slots[i]; s.block == 0 {
		*s = fill{b, ready}
		t.n++
	} else if ready > s.ready {
		s.ready = ready
	}
}

// grow doubles the table and rehashes every fill into it.
func (t *fillTable) grow() {
	old := t.slots
	t.slots = make([]fill, 2*len(old))
	t.shift--
	for _, s := range old {
		if s.block != 0 {
			t.slots[t.find(s.block)] = s
		}
	}
}

// sweep drops every fill that has completed by cycle now, in one pass over
// the slots. A deletion can shift a later fill back into the slot just
// emptied, so that slot is examined again before the pass moves on.
func (t *fillTable) sweep(now uint64) {
	if t.zero && t.zeroReady <= now {
		t.zero = false
		t.n--
	}
	for i := uint64(0); i < uint64(len(t.slots)); {
		if s := t.slots[i]; s.block != 0 && s.ready <= now {
			t.deleteAt(i)
			continue
		}
		i++
	}
}

func (t *fillTable) reset() {
	clear(t.slots)
	t.n = 0
	t.zero = false
}

// Hierarchy is a two-level cache hierarchy with in-flight prefetch tracking.
// It is not safe for concurrent use; the machine interpreter is
// single-threaded, matching the paper's uniprocessor platform.
//
// Each level is one slice of packed ways, assoc consecutive words per set,
// so an 8-way set is one 64-byte host cache line. The in-flight fills are a
// flat table that a plain hit never touches. A block can be in flight while
// it sits in L1 only if its way is fresh (prefetched, not yet touched):
// Prefetch installs every fill's block as a fresh way, a demand miss drops
// the block's fill, and a prefetch of a block already in L1 is a duplicate
// that starts no fill. So an L1 hit probes the table only when it is the
// first touch of a fresh way, and a miss skips its delete while nothing is
// in flight.
type Hierarchy struct {
	cfg        Config
	blockShift uint
	l1, l2     level
	fills      fillTable
	stats      Stats
	observer   Observer
}

// New constructs a hierarchy for the given configuration.
// It panics if the configuration is invalid; use Config.Validate to check.
func New(cfg Config) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Hierarchy{
		cfg:        cfg,
		blockShift: uint(bits.TrailingZeros(uint(cfg.BlockSize))),
		l1:         newLevel(cfg.L1Size, cfg.BlockSize, cfg.L1Assoc),
		l2:         newLevel(cfg.L2Size, cfg.BlockSize, cfg.L2Assoc),
		fills:      newFillTable(),
	}
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a snapshot of the accumulated counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// SetObserver attaches an access observer (nil detaches).
func (h *Hierarchy) SetObserver(o Observer) { h.observer = o }

// Block returns the block number containing addr.
func (h *Hierarchy) Block(addr uint64) uint64 { return addr >> h.blockShift }

// BlockSize returns the configured block size in bytes.
func (h *Hierarchy) BlockSize() int { return h.cfg.BlockSize }

// Access performs a demand load or store of addr at the current cycle and
// returns the number of stall cycles the access costs beyond the
// instruction's base cost.
func (h *Hierarchy) Access(now uint64, pc int, addr uint64, isWrite bool) uint64 {
	if isWrite {
		h.stats.Stores++
	} else {
		h.stats.Loads++
	}
	block := addr >> h.blockShift

	var stall uint64
	var l1Hit, l2Hit bool
	set1, key1 := h.l1.set(block)
	if i := find(set1, key1); i >= 0 {
		h.stats.L1Hits++
		l1Hit = true
		if promote(set1, i)&wayFresh != 0 {
			set1[0] = key1
			h.stats.UsefulPrefetches++
			// The block may still be in flight: stall for the remaining
			// fill latency (a "late" but still partially useful prefetch).
			if ready, ok := h.fills.take(block); ok && ready > now {
				stall = ready - now
				h.stats.LatePrefetches++
				h.stats.LateStallCycles += stall
			}
		}
	} else {
		h.stats.L1Misses++
		if h.fills.n > 0 {
			h.fills.take(block) // the block was evicted before use, if in flight
		}
		set2, key2 := h.l2.set(block)
		if j := find(set2, key2); j >= 0 {
			promote(set2, j)
			h.stats.L2Hits++
			l2Hit = true
			stall = h.cfg.L2HitLatency
		} else {
			h.stats.L2Misses++
			stall = h.cfg.MemLatency
			install(set2, key2)
		}
		h.installL1(set1, key1)
	}
	h.stats.StallCycles += stall
	if h.observer != nil {
		h.observer.OnAccess(now, pc, addr, l1Hit, l2Hit)
	}
	return stall
}

// installL1 installs w in its L1 set, counting a fresh way it evicts: a
// prefetch no demand access used.
func (h *Hierarchy) installL1(set []uint64, w uint64) {
	if install(set, w)&wayFresh != 0 {
		h.stats.PrefetchEvictions++
	}
}

// Prefetch issues a non-blocking prefetch of addr at the current cycle,
// modeling the Pentium III prefetcht0 instruction used by the paper (§4.1):
// the block is brought into both cache levels. The fill completes after the
// appropriate latency; a demand access that arrives earlier stalls only for
// the remaining time.
func (h *Hierarchy) Prefetch(now uint64, addr uint64) {
	h.stats.Prefetches++
	block := addr >> h.blockShift
	set1, key1 := h.l1.set(block)
	if find(set1, key1) >= 0 {
		h.stats.PrefetchDupes++
		return
	}
	if max := h.cfg.MaxInflight; max > 0 && h.fills.n >= max {
		h.fills.sweep(now) // reclaim completed fills before deciding to drop
		if h.fills.n >= max {
			h.stats.PrefetchDrops++
			return
		}
	}
	latency := h.cfg.MemLatency
	set2, key2 := h.l2.set(block)
	if j := find(set2, key2); j >= 0 {
		promote(set2, j)
		latency = h.cfg.L2HitLatency
	} else {
		install(set2, key2)
	}
	h.installL1(set1, key1|wayFresh)
	h.fills.raise(block, now+latency)
}

// Contains reports whether addr's block currently resides in the given level
// (1 or 2) without disturbing replacement state. It is intended for tests.
func (h *Hierarchy) Contains(level int, addr uint64) bool {
	block := addr >> h.blockShift
	switch level {
	case 1:
		return find(h.l1.set(block)) >= 0
	case 2:
		return find(h.l2.set(block)) >= 0
	default:
		panic("memsim: Contains level must be 1 or 2")
	}
}

// Detector is the detection code a replay runs after each demand access:
// Observe returns the addresses to prefetch and the comparisons the code
// executed. Every registered predictor and the root package's
// ConcurrentMatcher satisfy it.
type Detector interface {
	Observe(r ref.Ref) (prefetch []uint64, comparisons int)
}

// Replay plays refs through h as loads from cycle now, running d after each
// access, and returns the cycle it ends at and the comparisons d charged.
// It is the one charge model of every trace replay: an access costs one
// issue cycle plus its stall, then each comparison d reports costs one
// cycle, and d's prefetches issue at the cycle after that charge. A
// reference costs the comparisons its detection code executes, so where d
// runs no detection code (it reports 0) the reference costs only its
// access. A nil d is the no-prefetch run.
func Replay(h *Hierarchy, now uint64, refs []ref.Ref, d Detector) (end, comparisons uint64) {
	for _, r := range refs {
		now += 1 + h.Access(now, r.PC, r.Addr, false)
		if d == nil {
			continue
		}
		pf, c := d.Observe(r)
		now += uint64(c)
		comparisons += uint64(c)
		for _, a := range pf {
			h.Prefetch(now, a)
		}
	}
	return now, comparisons
}

// Reset clears all cache contents, in-flight fills, and statistics.
func (h *Hierarchy) Reset() {
	clear(h.l1.ways)
	clear(h.l2.ways)
	h.fills.reset()
	h.stats = Stats{}
}
