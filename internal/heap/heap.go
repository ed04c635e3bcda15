// Package heap provides a simulated heap allocator for building the
// pointer-based data structures the workloads traverse.
//
// The arena is a bump allocator over the machine's flat memory. Workload
// generators control object layout precisely — the paper's Seq-pref baseline
// (§4.3) behaves very differently on sequentially-allocated streams (parser)
// than on scattered ones (everything else), so allocation order is a
// first-class knob here.
package heap

import (
	"fmt"
	"math/rand"
)

// WordSize is the size of a machine word in bytes.
const WordSize = 8

// Arena is a bump allocator over a word-addressed memory. Addresses are byte
// addresses, always WordSize-aligned.
type Arena struct {
	mem   []uint64
	brk   uint64
	limit uint64
}

// NewArena creates an arena over mem, allocating upward from start (which is
// rounded up to word alignment). Address 0 is conventionally reserved as the
// nil pointer, so start must be positive.
func NewArena(mem []uint64, start uint64) *Arena {
	if start == 0 {
		start = WordSize
	}
	start = (start + WordSize - 1) &^ (WordSize - 1)
	return &Arena{mem: mem, brk: start, limit: uint64(len(mem)) * WordSize}
}

// Alloc reserves size bytes (rounded up to word alignment) and returns the
// address. It panics if the arena is exhausted: workloads are generated with
// known footprints, so exhaustion is a construction bug.
func (a *Arena) Alloc(size uint64) uint64 {
	size = (size + WordSize - 1) &^ (WordSize - 1)
	if a.brk+size > a.limit {
		panic(fmt.Sprintf("heap: arena exhausted: brk=%d size=%d limit=%d", a.brk, size, a.limit))
	}
	addr := a.brk
	a.brk += size
	return addr
}

// AllocWords reserves n words and returns the address.
func (a *Arena) AllocWords(n int) uint64 { return a.Alloc(uint64(n) * WordSize) }

// Skip advances the allocation frontier by size bytes without returning
// them, creating a layout gap that breaks block adjacency between
// consecutively allocated objects.
func (a *Arena) Skip(size uint64) { a.Alloc(size) }

// Write stores val at byte address addr.
func (a *Arena) Write(addr, val uint64) { a.mem[addr/WordSize] = val }

// Read returns the word at byte address addr.
func (a *Arena) Read(addr uint64) uint64 { return a.mem[addr/WordSize] }

// Node layout helpers ------------------------------------------------------

// List allocates n nodes of nodeWords words each and links them in logical
// order through the pointer field at word offset nextOff: node[i].next =
// node[i+1], with the final node's next = 0 (nil). The physical placement
// follows perm: node with logical index i is the perm[i]-th object laid out
// in memory. A nil perm places nodes in logical order (sequential layout).
// It returns the node addresses in logical order.
func (a *Arena) List(n, nodeWords, nextOff int, perm []int, gap uint64) []uint64 {
	if perm != nil && len(perm) != n {
		panic("heap: permutation length mismatch")
	}
	slots := make([]uint64, n)
	for i := 0; i < n; i++ {
		slots[i] = a.AllocWords(nodeWords)
		if gap > 0 {
			a.Skip(gap)
		}
	}
	addrs := make([]uint64, n)
	for i := 0; i < n; i++ {
		slot := i
		if perm != nil {
			slot = perm[i]
		}
		addrs[i] = slots[slot]
	}
	for i := 0; i < n; i++ {
		next := uint64(0)
		if i+1 < n {
			next = addrs[i+1]
		}
		a.Write(addrs[i]+uint64(nextOff)*WordSize, next)
	}
	return addrs
}

// Ring links the nodes of a List circularly: the last node points back to
// the first. It returns the node addresses in logical order.
func (a *Arena) Ring(n, nodeWords, nextOff int, perm []int, gap uint64) []uint64 {
	addrs := a.List(n, nodeWords, nextOff, perm, gap)
	a.Write(addrs[n-1]+uint64(nextOff)*WordSize, addrs[0])
	return addrs
}

// Table allocates an array of n pointer words and returns its address. Each
// element is initialized from addrs.
func (a *Arena) Table(addrs []uint64) uint64 {
	base := a.AllocWords(len(addrs))
	for i, p := range addrs {
		a.Write(base+uint64(i)*WordSize, p)
	}
	return base
}

// ShuffledPerm returns a deterministic pseudo-random permutation of [0,n)
// derived from seed. Workloads use it to scatter allocation order so that
// logically consecutive objects land in non-adjacent cache blocks.
func ShuffledPerm(n int, seed int64) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}
