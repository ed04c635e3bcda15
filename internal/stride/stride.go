// Package stride implements a table-driven stream/stride prefetcher: a small
// fully-associative table of stream entries, one per active page, each
// tracking the last block touched, the stream's direction, and a saturating
// confidence counter, with LRU replacement — the classic hardware stream
// detector (the Virtuoso/DROPLET StreamEntry shape, and the tracking
// structure Feedback Directed Prefetching builds on).
//
// Unlike the DFSM and Markov predictors, the stride table needs no trained
// address tables to predict: training (see New) only seeds the table by
// replaying the hot streams, priming direction and confidence so known-hot
// pages prefetch from the first post-training touch. Detection is spatial —
// monotone block runs within a page — so it covers array walks the
// grammar-based analysis sees as many distinct streams, and misses
// pointer-chasing streams entirely.
//
// Observe reuses an internal prefetch buffer: the returned slice is valid
// only until the next Observe and must not be retained or mutated.
package stride

import (
	"fmt"
	"slices"

	"hotprefetch/internal/ref"
)

// Config sizes the table and shapes issue behavior.
type Config struct {
	// Entries is the stream-table size (default 16). Lookup is a linear
	// scan — the hardware structure is a small CAM — so comparisons
	// reported by Observe grow with occupancy.
	Entries int
	// PageBits is log2 of the page size bounding each stream (default 12:
	// 4 KiB). Prefetches never cross a page boundary.
	PageBits uint
	// BlockBits is log2 of the prefetch block (default 5: 32 B, matching
	// internal/memsim's line size).
	BlockBits uint
	// Degree is the number of consecutive blocks issued per confident hit
	// (default 2).
	Degree int
	// MaxConf is the confidence ceiling (default 3).
	MaxConf int8
	// Threshold is the confidence needed before prefetches issue
	// (default 2).
	Threshold int8
}

func (c Config) withDefaults() Config {
	if c.Entries == 0 {
		c.Entries = 16
	}
	if c.PageBits == 0 {
		c.PageBits = 12
	}
	if c.BlockBits == 0 {
		c.BlockBits = 5
	}
	if c.Degree == 0 {
		c.Degree = 2
	}
	if c.MaxConf == 0 {
		c.MaxConf = 3
	}
	if c.Threshold == 0 {
		c.Threshold = 2
	}
	return c
}

func (c Config) validate() error {
	if c.Entries < 1 {
		return fmt.Errorf("stride: table needs >= 1 entry, got %d", c.Entries)
	}
	if c.BlockBits >= c.PageBits {
		return fmt.Errorf("stride: block bits %d must be < page bits %d", c.BlockBits, c.PageBits)
	}
	if c.PageBits > 32 {
		return fmt.Errorf("stride: page bits %d too large", c.PageBits)
	}
	if c.Degree < 1 {
		return fmt.Errorf("stride: degree must be >= 1, got %d", c.Degree)
	}
	if c.Threshold < 1 || c.MaxConf < c.Threshold {
		return fmt.Errorf("stride: need 1 <= threshold (%d) <= max confidence (%d)",
			c.Threshold, c.MaxConf)
	}
	return nil
}

// entry is one tracked stream: a page, the last block index touched within
// it, the detected direction (+1/-1, 0 while unknown), and a saturating
// confidence counter. lru is a global access tick for replacement.
type entry struct {
	valid     bool
	dir       int8
	conf      int8
	lastBlock int32
	page      uint64
	lru       uint64
}

// Predictor is a stride predictor. It is not safe for concurrent use; wrap
// it (see the root package's ConcurrentMatcher) to share it.
type Predictor struct {
	cfg     Config
	table   []entry
	tick    uint64
	trained bool
	buf     []uint64

	// seeds retains the training streams so Reset can restore the exact
	// post-New table state. It is New's own copy of the slice, so a caller
	// reusing its stream slice cannot change what Reset replays; the
	// streams' Refs are shared and read-only (see ref.Stream).
	seeds []ref.Stream
}

// New builds a predictor and seeds its table by replaying the hot streams'
// references (in the given order, so callers control which streams win table
// slots when they exceed capacity). An empty (or nil) stream set yields a
// pass-through predictor that never prefetches and costs 0 comparisons per
// observation — matching the other predictors' deoptimized behavior rather
// than free-running stride detection, so swapping in an empty set disables
// prefetching, and its cost, across every predictor uniformly.
func New(streams []ref.Stream, cfg Config) (*Predictor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Predictor{
		cfg:   cfg,
		table: make([]entry, cfg.Entries),
		buf:   make([]uint64, 0, cfg.Degree),
	}
	if len(streams) == 0 {
		return p, nil
	}
	p.trained = true
	p.seeds = slices.Clone(streams)
	p.seed()
	return p, nil
}

func (p *Predictor) seed() {
	for _, s := range p.seeds {
		for _, r := range s.Refs {
			p.update(r.Addr)
		}
	}
}

// Observe consumes one data reference and returns the addresses to prefetch
// plus the number of table-entry comparisons the lookup performed: at least
// one once trained, 0 for a pass-through predictor (see Trained). The
// returned slice is the predictor's reused buffer: valid only until the
// next Observe.
func (p *Predictor) Observe(r ref.Ref) (prefetch []uint64, comparisons int) {
	if !p.trained {
		return nil, 0
	}
	e, cmp := p.update(r.Addr)
	if e == nil || e.dir == 0 || e.conf < p.cfg.Threshold {
		return nil, cmp
	}
	// Issue Degree blocks ahead in the stream direction, stopping at the
	// page boundary.
	blocksPerPage := int32(1) << (p.cfg.PageBits - p.cfg.BlockBits)
	p.buf = p.buf[:0]
	for i := int32(1); i <= int32(p.cfg.Degree); i++ {
		nb := e.lastBlock + int32(e.dir)*i
		if nb < 0 || nb >= blocksPerPage {
			break
		}
		p.buf = append(p.buf, e.page<<p.cfg.PageBits|uint64(nb)<<p.cfg.BlockBits)
	}
	if len(p.buf) == 0 {
		return nil, cmp
	}
	return p.buf, cmp
}

// update runs the table state machine for one address: find the page's
// entry (linear scan; comparisons = probes), train direction/confidence on
// a hit, allocate the LRU victim on a miss. Returns the entry when the
// access hit an existing stream, nil on a miss.
func (p *Predictor) update(addr uint64) (*entry, int) {
	page := addr >> p.cfg.PageBits
	block := int32(addr>>p.cfg.BlockBits) & (int32(1)<<(p.cfg.PageBits-p.cfg.BlockBits) - 1)
	p.tick++

	cmp := 0
	victim := -1
	for i := range p.table {
		e := &p.table[i]
		if !e.valid {
			// The table fills front to back and entries are never
			// invalidated, so nothing valid lives past the first free
			// slot: probing stops here, and the free slot is the victim.
			victim = i
			break
		}
		cmp++
		if e.page == page {
			d := int8(0)
			switch {
			case block > e.lastBlock:
				d = 1
			case block < e.lastBlock:
				d = -1
			}
			if d != 0 {
				if d == e.dir {
					if e.conf < p.cfg.MaxConf {
						e.conf++
					}
				} else {
					// Direction break: decay confidence, and flip the
					// stream once the old direction's credit is gone.
					e.conf--
					if e.conf <= 0 {
						e.dir = d
						e.conf = 1
					}
				}
			}
			e.lastBlock = block
			e.lru = p.tick
			return e, cmp
		}
		if victim == -1 || e.lru < p.table[victim].lru {
			victim = i
		}
	}
	if cmp == 0 {
		cmp = 1 // an empty table still costs one (failed) probe
	}
	v := &p.table[victim]
	*v = entry{valid: true, page: page, lastBlock: block, lru: p.tick}
	return nil, cmp
}

// Reset restores the exact post-New state: the table is cleared and
// re-seeded from the training streams.
func (p *Predictor) Reset() {
	for i := range p.table {
		p.table[i] = entry{}
	}
	p.tick = 0
	if p.trained {
		p.seed()
	}
}

// Trained reports whether the predictor was seeded with a non-empty stream
// set (an unseeded predictor is pass-through; see New).
func (p *Predictor) Trained() bool { return p.trained }

// Live returns the number of valid table entries, for stats surfaces.
func (p *Predictor) Live() int {
	n := 0
	for i := range p.table {
		if p.table[i].valid {
			n++
		}
	}
	return n
}
