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
package memsim

import "hotprefetch/internal/ref"

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
	if c.L1Size/(c.BlockSize*c.L1Assoc) == 0 {
		return &ConfigError{Field: "L1Size/Assoc", Value: c.L1Size}
	}
	if c.L2Size/(c.BlockSize*c.L2Assoc) == 0 {
		return &ConfigError{Field: "L2Size/Assoc", Value: c.L2Size}
	}
	return nil
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

type line struct {
	tag        uint64
	valid      bool
	prefetched bool // installed by a prefetch
	touched    bool // demand-accessed since install
}

// cache is one set-associative level. Each set keeps its lines in MRU-first
// order; lookups move the hit line to the front, evictions take the back.
type cache struct {
	sets     [][]line
	setMask  uint64
	assoc    int
	evictObs func(l line)
}

func newCache(size, blockSize, assoc int, evictObs func(line)) *cache {
	nSets := size / (blockSize * assoc)
	c := &cache{
		sets:     make([][]line, nSets),
		setMask:  uint64(nSets - 1),
		assoc:    assoc,
		evictObs: evictObs,
	}
	backing := make([]line, nSets*assoc)
	for i := range c.sets {
		c.sets[i] = backing[i*assoc : (i+1)*assoc : (i+1)*assoc]
	}
	return c
}

// lookup probes for block and promotes it to MRU on a hit. It returns a
// pointer to the (promoted) line, or nil on a miss.
func (c *cache) lookup(block uint64) *line {
	set := c.sets[block&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == block {
			// Move to front (MRU).
			hit := set[i]
			copy(set[1:i+1], set[:i])
			set[0] = hit
			return &set[0]
		}
	}
	return nil
}

// contains probes for block without disturbing recency order.
func (c *cache) contains(block uint64) bool {
	set := c.sets[block&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == block {
			return true
		}
	}
	return false
}

// install inserts block as MRU, evicting the LRU line if the set is full.
// It returns a pointer to the installed line.
func (c *cache) install(block uint64, prefetched bool) *line {
	set := c.sets[block&c.setMask]
	victim := set[len(set)-1]
	if victim.valid && c.evictObs != nil {
		c.evictObs(victim)
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line{tag: block, valid: true, prefetched: prefetched}
	return &set[0]
}

// invalidateAll clears every line (used by Reset).
func (c *cache) invalidateAll() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = line{}
		}
	}
}

// Hierarchy is a two-level cache hierarchy with in-flight prefetch tracking.
// It is not safe for concurrent use; the machine interpreter is
// single-threaded, matching the paper's uniprocessor platform.
type Hierarchy struct {
	cfg        Config
	blockShift uint
	l1, l2     *cache
	inflight   map[uint64]uint64 // block -> cycle at which the fill completes
	stats      Stats
	observer   Observer
}

// New constructs a hierarchy for the given configuration.
// It panics if the configuration is invalid; use Config.Validate to check.
func New(cfg Config) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{
		cfg:      cfg,
		inflight: make(map[uint64]uint64),
	}
	for cfg.BlockSize>>h.blockShift > 1 {
		h.blockShift++
	}
	h.l1 = newCache(cfg.L1Size, cfg.BlockSize, cfg.L1Assoc, h.onL1Evict)
	h.l2 = newCache(cfg.L2Size, cfg.BlockSize, cfg.L2Assoc, nil)
	return h
}

func (h *Hierarchy) onL1Evict(l line) {
	if l.prefetched && !l.touched {
		h.stats.PrefetchEvictions++
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
	if l := h.l1.lookup(block); l != nil {
		h.stats.L1Hits++
		l1Hit = true
		if l.prefetched && !l.touched {
			h.stats.UsefulPrefetches++
			l.touched = true
		}
		// The block may still be in flight from a prefetch: stall for the
		// remaining fill latency (a "late" but still partially useful
		// prefetch).
		if ready, ok := h.inflight[block]; ok {
			if ready > now {
				wait := ready - now
				stall = wait
				h.stats.LatePrefetches++
				h.stats.LateStallCycles += wait
			}
			delete(h.inflight, block)
		}
	} else {
		h.stats.L1Misses++
		delete(h.inflight, block) // block was evicted before use, if present
		if h.l2.lookup(block) != nil {
			h.stats.L2Hits++
			l2Hit = true
			stall = h.cfg.L2HitLatency
			h.l1.install(block, false)
		} else {
			h.stats.L2Misses++
			stall = h.cfg.MemLatency
			h.l2.install(block, false)
			h.l1.install(block, false)
		}
	}
	h.stats.StallCycles += stall
	if h.observer != nil {
		h.observer.OnAccess(now, pc, addr, l1Hit, l2Hit)
	}
	return stall
}

// Prefetch issues a non-blocking prefetch of addr at the current cycle,
// modeling the Pentium III prefetcht0 instruction used by the paper (§4.1):
// the block is brought into both cache levels. The fill completes after the
// appropriate latency; a demand access that arrives earlier stalls only for
// the remaining time.
func (h *Hierarchy) Prefetch(now uint64, addr uint64) {
	h.stats.Prefetches++
	block := addr >> h.blockShift
	if h.l1.contains(block) {
		h.stats.PrefetchDupes++
		return
	}
	if max := h.cfg.MaxInflight; max > 0 && len(h.inflight) >= max {
		// Reclaim completed fills before deciding to drop.
		for b, ready := range h.inflight {
			if ready <= now {
				delete(h.inflight, b)
			}
		}
		if len(h.inflight) >= max {
			h.stats.PrefetchDrops++
			return
		}
	}
	var latency uint64
	if h.l2.lookup(block) != nil {
		latency = h.cfg.L2HitLatency
	} else {
		latency = h.cfg.MemLatency
		h.l2.install(block, true)
	}
	h.l1.install(block, true)
	if ready, ok := h.inflight[block]; !ok || now+latency > ready {
		h.inflight[block] = now + latency
	}
}

// Contains reports whether addr's block currently resides in the given level
// (1 or 2) without disturbing replacement state. It is intended for tests.
func (h *Hierarchy) Contains(level int, addr uint64) bool {
	block := addr >> h.blockShift
	switch level {
	case 1:
		return h.l1.contains(block)
	case 2:
		return h.l2.contains(block)
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
	h.l1.invalidateAll()
	h.l2.invalidateAll()
	clear(h.inflight)
	h.stats = Stats{}
}
