// Package ref defines the data-reference representation shared by the
// profiling, analysis, and prefetching layers.
//
// Following the paper (§2.1), a data reference r is a load or store of a
// particular address, represented as the pair (r.pc, r.addr). The profiling
// layer interns references into dense symbol identifiers so that the Sequitur
// grammar (which operates on integer terminals) and the hot-data-stream
// analysis can work with compact values and map results back to concrete
// references.
package ref

import "fmt"

// Ref is a single data reference: a load or store of address Addr executed by
// the static instruction identified by PC. PC values are the stable
// instruction identities assigned by the machine package; they survive
// procedure cloning by dynamic instrumentation.
type Ref struct {
	PC   int
	Addr uint64
}

// String renders the reference in the paper's "pc:addr" style.
func (r Ref) String() string {
	return fmt.Sprintf("%d:0x%x", r.PC, r.Addr)
}

// Symbol is a dense identifier for an interned Ref. Symbols are the terminal
// alphabet of the Sequitur grammar.
type Symbol uint32

// Interner assigns dense Symbol identifiers to references and maps them back.
// The zero value is ready to use.
//
// Interning sits on the profiling hot path — one lookup per sampled data
// reference — so instead of a Go map with a composite struct key, the
// interner probes a flat open-addressed table (linear probing, power-of-two
// capacity). Entries store sym+1 so the zero value marks an empty slot;
// nothing is ever deleted, so no tombstone handling is needed.
type Interner struct {
	entries []internEntry
	refs    []Ref
}

type internEntry struct {
	r    Ref
	sym1 uint32 // Symbol+1; 0 = empty slot
}

// hashRef mixes a reference's pc and address (splitmix64-style finalizer).
func hashRef(r Ref) uint64 {
	h := uint64(r.PC)*0x9E3779B97F4A7C15 + r.Addr
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 32
	return h
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{}
}

// Intern returns the symbol for r, allocating a new one on first sight.
func (in *Interner) Intern(r Ref) Symbol {
	if 4*(len(in.refs)+1) >= 3*len(in.entries) { // grow at 75% load
		in.grow()
	}
	mask := uint64(len(in.entries) - 1)
	for i := hashRef(r) & mask; ; i = (i + 1) & mask {
		e := &in.entries[i]
		if e.sym1 == 0 {
			s := Symbol(len(in.refs))
			*e = internEntry{r: r, sym1: uint32(s) + 1}
			in.refs = append(in.refs, r)
			return s
		}
		if e.r == r {
			return Symbol(e.sym1 - 1)
		}
	}
}

// Lookup returns the symbol for r and whether it has been interned.
func (in *Interner) Lookup(r Ref) (Symbol, bool) {
	if len(in.entries) == 0 {
		return 0, false
	}
	mask := uint64(len(in.entries) - 1)
	for i := hashRef(r) & mask; ; i = (i + 1) & mask {
		e := &in.entries[i]
		if e.sym1 == 0 {
			return 0, false
		}
		if e.r == r {
			return Symbol(e.sym1 - 1), true
		}
	}
}

func (in *Interner) grow() {
	newCap := 64
	if len(in.entries) > 0 {
		newCap = 2 * len(in.entries)
	}
	old := in.entries
	in.entries = make([]internEntry, newCap)
	mask := uint64(newCap - 1)
	for _, e := range old {
		if e.sym1 == 0 {
			continue
		}
		for i := hashRef(e.r) & mask; ; i = (i + 1) & mask {
			if in.entries[i].sym1 == 0 {
				in.entries[i] = e
				break
			}
		}
	}
}

// Ref returns the reference for a previously interned symbol.
// It panics if s was never returned by Intern.
func (in *Interner) Ref(s Symbol) Ref {
	return in.refs[s]
}

// Stream resolves a word of interned symbols — a hot stream as the
// analysis reports it — into a Stream of concrete references.
func (in *Interner) Stream(word []uint64, heat uint64) Stream {
	refs := make([]Ref, len(word))
	for i, sym := range word {
		refs[i] = in.refs[sym]
	}
	return Stream{Refs: refs, Heat: heat}
}

// Len reports the number of distinct references interned so far.
func (in *Interner) Len() int { return len(in.refs) }

// Reset discards all interned references, recycling the storage.
func (in *Interner) Reset() {
	clear(in.entries)
	in.refs = in.refs[:0]
}

// Stream is a hot data stream: a sequence of references that frequently
// repeats in the same order, together with its regularity magnitude
// (heat = length × frequency, §2.3). It is the one stream type every layer
// shares — profile extraction, banking, snapshots and every predictor.
//
// Refs is read-only once a stream is produced: predictors and matchers
// built over a stream keep slices of Refs instead of copying them, so a
// caller that wants to edit a stream must copy Refs first.
type Stream struct {
	Refs []Ref
	Heat uint64
}

// Len returns the number of references in the stream.
func (s Stream) Len() int { return len(s.Refs) }

// Coverage returns the fraction of a trace of traceLen references this
// stream accounts for.
func (s Stream) Coverage(traceLen uint64) float64 {
	if traceLen == 0 {
		return 0
	}
	return float64(s.Heat) / float64(traceLen)
}
