package memsim

// refHierarchy is the hierarchy as it was before the flat tables: slices of
// line structs per set and a Go map of in-flight fills. It is kept only as
// the reference FuzzHierarchyDifferential checks Hierarchy against.
type refHierarchy struct {
	cfg        Config
	blockShift uint
	l1, l2     *refCache
	inflight   map[uint64]uint64 // block -> cycle at which the fill completes
	stats      Stats
	observer   Observer
}

type refLine struct {
	tag        uint64
	valid      bool
	prefetched bool // installed by a prefetch
	touched    bool // demand-accessed since install
}

// refCache is one set-associative level. Each set keeps its lines in
// MRU-first order; lookups move the hit line to the front, evictions take
// the back.
type refCache struct {
	sets     [][]refLine
	setMask  uint64
	evictObs func(l refLine)
}

func newRefCache(size, blockSize, assoc int, evictObs func(refLine)) *refCache {
	nSets := size / (blockSize * assoc)
	c := &refCache{
		sets:     make([][]refLine, nSets),
		setMask:  uint64(nSets - 1),
		evictObs: evictObs,
	}
	backing := make([]refLine, nSets*assoc)
	for i := range c.sets {
		c.sets[i] = backing[i*assoc : (i+1)*assoc : (i+1)*assoc]
	}
	return c
}

func (c *refCache) lookup(block uint64) *refLine {
	set := c.sets[block&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == block {
			hit := set[i]
			copy(set[1:i+1], set[:i])
			set[0] = hit
			return &set[0]
		}
	}
	return nil
}

func (c *refCache) contains(block uint64) bool {
	set := c.sets[block&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == block {
			return true
		}
	}
	return false
}

func (c *refCache) install(block uint64, prefetched bool) {
	set := c.sets[block&c.setMask]
	victim := set[len(set)-1]
	if victim.valid && c.evictObs != nil {
		c.evictObs(victim)
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = refLine{tag: block, valid: true, prefetched: prefetched}
}

func newRefHierarchy(cfg Config) *refHierarchy {
	h := &refHierarchy{cfg: cfg, inflight: make(map[uint64]uint64)}
	for cfg.BlockSize>>h.blockShift > 1 {
		h.blockShift++
	}
	h.l1 = newRefCache(cfg.L1Size, cfg.BlockSize, cfg.L1Assoc, func(l refLine) {
		if l.prefetched && !l.touched {
			h.stats.PrefetchEvictions++
		}
	})
	h.l2 = newRefCache(cfg.L2Size, cfg.BlockSize, cfg.L2Assoc, nil)
	return h
}

func (h *refHierarchy) Access(now uint64, pc int, addr uint64, isWrite bool) uint64 {
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
		delete(h.inflight, block)
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

func (h *refHierarchy) Prefetch(now uint64, addr uint64) {
	h.stats.Prefetches++
	block := addr >> h.blockShift
	if h.l1.contains(block) {
		h.stats.PrefetchDupes++
		return
	}
	if max := h.cfg.MaxInflight; max > 0 && len(h.inflight) >= max {
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

func (h *refHierarchy) Contains(level int, addr uint64) bool {
	block := addr >> h.blockShift
	if level == 1 {
		return h.l1.contains(block)
	}
	return h.l2.contains(block)
}

func (h *refHierarchy) Reset() {
	for _, c := range []*refCache{h.l1, h.l2} {
		for _, set := range c.sets {
			clear(set)
		}
	}
	clear(h.inflight)
	h.stats = Stats{}
}
