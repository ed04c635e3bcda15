// Package dfsm builds and drives the prefix-matching deterministic finite
// state machine of the paper's §3.1 (Figures 7–9).
//
// Each hot data stream v is split into a head (the first headLen references,
// which must be observed to trigger prefetching) and a tail (the remaining
// addresses, which are prefetched on a complete head match). Rather than
// matching each stream independently, a single DFSM tracks the matching
// prefixes of all hot data streams simultaneously: a state is a set of
// [stream, seen] elements, and the transition function is
//
//	d(s,a) = {[v,n+1] | n < headLen && [v,n] in s && a == v_{n+1}}
//	         union {[w,1] | a == w_1}
//
// States whose element sets contain a completed head ([v, headLen]) are
// annotated with the prefetch addresses of v's tail. The DFSM is built with
// the lazy work-list algorithm of Figure 9; the number of reachable states
// is usually close to headLen*n+1 rather than the exponential worst case.
//
// Because Observe models code injected on the program's own loads (§3.2
// charges every executed comparison), the built machine is compiled into
// flat per-pc transition tables — sorted address arms over state-indexed
// entry runs — so that driving it is array indexing with no map lookups and
// no allocations unless a prefetch fires. The comparison counts Observe
// reports are those of the paper's Figure 7 generated code and are
// unchanged by the compilation.
package dfsm

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"

	"hotprefetch/internal/ref"
)

// Stream is one hot data stream prepared for prefix matching: the stream
// itself plus its head/tail split.
type Stream struct {
	ref.Stream
	Head []ref.Ref // Refs[:headLen]
	Tail []uint64  // deduplicated addresses of Refs[headLen:]
}

// Split prepares a stream for matching with the given head length,
// deduplicating tail addresses (the paper prefetches each remaining stream
// address once: for v = abacadae with head aba it prefetches c, a, d, e).
// Streams are bounded at ~100 references, so the dedup is a linear scan over
// the tail built so far rather than a per-stream map.
func Split(refs []ref.Ref, heat uint64, headLen int) Stream {
	s := Stream{Stream: ref.Stream{Refs: refs, Heat: heat}}
	if len(refs) <= headLen {
		s.Head = refs
		return s
	}
	s.Head = refs[:headLen]
	tail := make([]uint64, 0, len(refs)-headLen)
outer:
	for _, r := range refs[headLen:] {
		for _, a := range tail {
			if a == r.Addr {
				continue outer
			}
		}
		tail = append(tail, r.Addr)
	}
	s.Tail = tail
	return s
}

// New splits each hot stream with the given head length and builds their
// combined prefix-matching DFSM — the one constructor every layer that
// matches a stream set goes through. Split only reads a stream's Refs, so
// the machine shares them with the caller (see ref.Stream).
//
// Splitting is independent across streams, so large stream sets are split
// in parallel partitions; each worker writes disjoint slots, so the built
// machine is identical regardless of parallelism.
func New(streams []ref.Stream, headLen int) *DFSM {
	split := make([]Stream, len(streams))
	prep := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			split[i] = Split(streams[i].Refs, streams[i].Heat, headLen)
		}
	}
	if workers := runtime.GOMAXPROCS(0); workers > 1 && len(streams) >= 32 {
		var wg sync.WaitGroup
		chunk := (len(streams) + workers - 1) / workers
		for lo := 0; lo < len(streams); lo += chunk {
			hi := min(lo+chunk, len(streams))
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				prep(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	} else {
		prep(0, len(streams))
	}
	return Build(split, headLen)
}

// Element is one [stream, seen] pair of a DFSM state: the first seen
// references of stream have been matched.
type Element struct {
	Stream int // index into DFSM.Streams
	Seen   int // 1..headLen
}

// State is a reachable DFSM state.
type State struct {
	ID       int
	Elements []Element // canonically sorted
	// Prefetches lists the tail addresses of every stream whose head is
	// completely matched in this state; they are issued on entry.
	Prefetches []uint64
}

// transKey identifies a transition source: a state and an observed data
// reference.
type transKey struct {
	state int
	r     ref.Ref
}

// transRec is one explicit transition in the flat relation Build produces:
// observing (pc, addr) in state from moves the machine to state to. Build
// appends records instead of populating a map, and compile sorts them into
// the table layout; the map form exists only for the non-hot Next/DOT paths.
type transRec struct {
	pc       int
	addr     uint64
	from, to int32
}

// DFSM is the combined prefix-matching machine for a set of hot data
// streams.
type DFSM struct {
	Streams []Stream
	HeadLen int
	States  []*State

	// transRecs is the explicit transition relation in flat, sorted form
	// (by pc, then addr, then source state). The matching hot path never
	// touches it: Observe runs on the compiled tables below. trans is the map
	// view, built lazily on the first Next call.
	transRecs []transRec
	transOnce sync.Once
	trans     map[transKey]*State

	// Compiled detection tables, the flat layout of the comparison
	// structure the injected code executes per instrumented pc (paper
	// Figure 7): an outer if-chain over addresses (arms), each with an
	// inner if-chain over source states (entries) and a restart default.
	//
	// pcDense maps pc-pcMin straight to the pc's [start,end) arm range
	// when the instrumented pc range is dense enough ({0,0} = not
	// instrumented); otherwise pcKeys holds the sorted instrumented pcs,
	// Observe binary-searches, and pcSpan[slot] holds the range.
	pcMin   int
	pcDense [][2]int32
	pcKeys  []int
	pcSpan  [][2]int32
	arms    []addrArm
	chains  []stateEntry
}

// addrArm is one arm of the outer "if (accessing addr)" chain, its inner
// state compares stored as chains[eStart:eEnd].
type addrArm struct {
	addr         uint64
	restart      int32 // d(start, addr) state ID, or -1 (arm's else branch)
	eStart, eEnd int32
}

type stateEntry struct {
	from, to int32
}

// Build constructs the DFSM for the given streams with the lazy work-list
// algorithm of paper Figure 9. Streams no longer than headLen carry no
// prefetchable tail and are dropped.
//
// Construction is allocation-lean: element sets live in one growing arena and
// are interned through an open-addressed hash table of state indices, the
// transition relation is a flat record slice, and the compiled tables are
// carved from exactly-sized arrays. The expensive per-transition heat ranking
// in compile fans out across GOMAXPROCS workers over disjoint arm partitions,
// so the result is identical regardless of parallelism.
func Build(streams []Stream, headLen int) *DFSM {
	if headLen < 1 {
		panic("dfsm: headLen must be >= 1")
	}
	var usable []Stream
	for _, s := range streams {
		if len(s.Refs) > headLen && len(s.Tail) > 0 {
			usable = append(usable, s)
		}
	}
	d := &DFSM{Streams: usable, HeadLen: headLen}

	// State interning: per-state [off,end) spans into a shared element
	// arena, plus each state's hash, looked up through an open-addressed
	// table of state-index+1 slots (0 = empty). The start state (empty
	// element set) is never a lookup target — an empty successor set means
	// the implicit restart transition — so it is not in the table.
	var (
		elemArena []Element
		spans     = [][2]int32{{0, 0}} // spans[0] = start state
		hashes    = []uint64{0}
		slots     = make([]int32, 64)
		mask      = uint32(63)
	)
	insert := func(id int32) {
		for i := uint32(hashes[id]) & mask; ; i = (i + 1) & mask {
			if slots[i] == 0 {
				slots[i] = id + 1
				return
			}
		}
	}
	lookup := func(elems []Element, h uint64) int32 {
		for i := uint32(h) & mask; ; i = (i + 1) & mask {
			v := slots[i]
			if v == 0 {
				return -1
			}
			sp := spans[v-1]
			if hashes[v-1] == h && equalElements(elemArena[sp[0]:sp[1]], elems) {
				return v - 1
			}
		}
	}

	workList := []int32{0}
	var (
		cands   []ref.Ref
		scratch []Element
		recs    []transRec
	)
	for len(workList) > 0 {
		sid := workList[len(workList)-1]
		workList = workList[:len(workList)-1]
		sp := spans[sid]
		// selems stays valid across arena growth: append may move the
		// arena to a new backing array, but the old one is unchanged.
		selems := elemArena[sp[0]:sp[1]]

		// Candidate symbols: the next reference of each in-progress element,
		// plus the first reference of every stream (Figure 9's two loops).
		// Candidate sets are small (elements + streams), so dedup is a scan.
		cands = cands[:0]
		for _, e := range selems {
			if e.Seen < headLen {
				cands = appendCand(cands, d.Streams[e.Stream].Head[e.Seen])
			}
		}
		for i := range d.Streams {
			cands = appendCand(cands, d.Streams[i].Head[0])
		}

		// Each (state, candidate) pair is reached exactly once: states enter
		// the work list only when first interned, and cands is deduplicated,
		// so no transition-exists check is needed.
		for _, a := range cands {
			scratch = scratch[:0]
			for _, e := range selems {
				if e.Seen < headLen && d.Streams[e.Stream].Head[e.Seen] == a {
					scratch = append(scratch, Element{Stream: e.Stream, Seen: e.Seen + 1})
				}
			}
			for wi := range d.Streams {
				if d.Streams[wi].Head[0] == a && !hasElement(scratch, wi, 1) {
					scratch = append(scratch, Element{Stream: wi, Seen: 1})
				}
			}
			if len(scratch) == 0 {
				continue // implicit transition to the start state
			}
			sortElements(scratch)
			h := hashElements(scratch)
			tid := lookup(scratch, h)
			if tid < 0 {
				tid = int32(len(spans))
				off := int32(len(elemArena))
				elemArena = append(elemArena, scratch...)
				spans = append(spans, [2]int32{off, off + int32(len(scratch))})
				hashes = append(hashes, h)
				if len(spans)*4 >= len(slots)*3 {
					// Grow and rehash at 75% load.
					slots = make([]int32, 2*len(slots))
					mask = uint32(len(slots) - 1)
					for id := int32(1); id < int32(len(spans)); id++ {
						insert(id)
					}
				} else {
					insert(tid)
				}
				workList = append(workList, tid)
			}
			recs = append(recs, transRec{pc: a.PC, addr: a.Addr, from: sid, to: tid})
		}
	}
	d.transRecs = recs

	// Materialize the public state objects: elements slice straight into the
	// (now final) arena, prefetch lists into one exactly-sized array.
	n := len(spans)
	stateBuf := make([]State, n)
	d.States = make([]*State, n)
	totalPref := 0
	for id := 1; id < n; id++ {
		for _, e := range elemArena[spans[id][0]:spans[id][1]] {
			if e.Seen == headLen {
				totalPref += len(d.Streams[e.Stream].Tail)
			}
		}
	}
	prefArena := make([]uint64, 0, totalPref)
	for id := 0; id < n; id++ {
		sp := spans[id]
		st := &stateBuf[id]
		st.ID = id
		if sp[1] > sp[0] {
			st.Elements = elemArena[sp[0]:sp[1]:sp[1]]
		}
		pOff := len(prefArena)
		for _, e := range st.Elements {
			if e.Seen == headLen {
				prefArena = append(prefArena, d.Streams[e.Stream].Tail...)
			}
		}
		if len(prefArena) > pOff {
			st.Prefetches = prefArena[pOff:len(prefArena):len(prefArena)]
		}
		d.States[id] = st
	}

	d.compile()
	return d
}

// appendCand adds r to the candidate set if not already present.
func appendCand(cands []ref.Ref, r ref.Ref) []ref.Ref {
	for _, c := range cands {
		if c == r {
			return cands
		}
	}
	return append(cands, r)
}

// hashElements mixes an element set (already canonically sorted) into a
// 64-bit interning hash.
func hashElements(elems []Element) uint64 {
	h := uint64(1469598103934665603)
	for _, e := range elems {
		h ^= uint64(uint32(e.Stream)) | uint64(uint32(e.Seen))<<32
		h *= 1099511628211
		h ^= h >> 29
	}
	return h
}

func equalElements(a, b []Element) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func hasElement(elems []Element, stream, seen int) bool {
	for _, e := range elems {
		if e.Stream == stream && e.Seen == seen {
			return true
		}
	}
	return false
}

// sortElements canonically orders an element set by (stream, seen). Sets are
// small and nearly sorted (extensions preserve order; only fresh [w,1]
// elements land out of place), so an insertion sort avoids sort.Slice's
// per-call closure allocation on this per-transition path.
func sortElements(elems []Element) {
	for i := 1; i < len(elems); i++ {
		e := elems[i]
		j := i - 1
		for j >= 0 && (elems[j].Stream > e.Stream ||
			(elems[j].Stream == e.Stream && elems[j].Seen > e.Seen)) {
			elems[j+1] = elems[j]
			j--
		}
		elems[j+1] = e
	}
}

// compile lays out the per-pc comparison structure of the injected detection
// code as flat arrays. Hotter streams' addresses come first, modelling the
// paper's "sort the if-branches in such a way that more likely cases come
// first". Within an address arm, only extension transitions need explicit
// state compares; the restart transition d(start, a) is the arm's default.
//
// One sort of the flat transition relation by (pc, addr, from) makes every
// (pc, addr) group — one arm of the generated if-chain — contiguous with its
// state entries already ordered, so the tables are assembled by slicing, not
// by per-pc maps. The arm heat ranking, the only pass that touches every
// target state's element set, runs in parallel over disjoint arm partitions.
func (d *DFSM) compile() {
	recs := d.transRecs
	if len(recs) == 0 {
		return
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].pc != recs[j].pc {
			return recs[i].pc < recs[j].pc
		}
		if recs[i].addr != recs[j].addr {
			return recs[i].addr < recs[j].addr
		}
		return recs[i].from < recs[j].from
	})

	// One group per distinct (pc, addr): the record range, plus the restart
	// transition d(start, addr) if present (from == 0 sorts first).
	type group struct {
		pc           int
		addr         uint64
		heat         uint64
		restart      int32
		rStart, rEnd int32
	}
	nGroups := 1
	for i := 1; i < len(recs); i++ {
		if recs[i].pc != recs[i-1].pc || recs[i].addr != recs[i-1].addr {
			nGroups++
		}
	}
	groups := make([]group, 0, nGroups)
	for start := 0; start < len(recs); {
		end := start + 1
		for end < len(recs) && recs[end].pc == recs[start].pc && recs[end].addr == recs[start].addr {
			end++
		}
		g := group{
			pc:      recs[start].pc,
			addr:    recs[start].addr,
			restart: -1,
			rStart:  int32(start),
			rEnd:    int32(end),
		}
		if recs[start].from == 0 {
			g.restart = recs[start].to
		}
		groups = append(groups, g)
		start = end
	}

	// Arm heat = hottest stream with an element in any target state of the
	// group. Partitioned across workers; each writes only its own groups, so
	// the result is independent of the worker count.
	rankPartition := func(lo, hi int) {
		for gi := lo; gi < hi; gi++ {
			g := &groups[gi]
			for ri := g.rStart; ri < g.rEnd; ri++ {
				for _, e := range d.States[recs[ri].to].Elements {
					if h := d.Streams[e.Stream].Heat; h > g.heat {
						g.heat = h
					}
				}
			}
		}
	}
	if workers := runtime.GOMAXPROCS(0); workers > 1 && len(groups) >= 64 {
		var wg sync.WaitGroup
		chunk := (len(groups) + workers - 1) / workers
		for lo := 0; lo < len(groups); lo += chunk {
			hi := lo + chunk
			if hi > len(groups) {
				hi = len(groups)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				// Label the fan-out so CPU profiles attribute compile time to
				// the machine-build phase rather than anonymous goroutines.
				pprof.Do(context.Background(), pprof.Labels("hotprefetch_phase", "dfsm_compile"), func(context.Context) {
					rankPartition(lo, hi)
				})
			}(lo, hi)
		}
		wg.Wait()
	} else {
		rankPartition(0, len(groups))
	}

	sort.Slice(groups, func(i, j int) bool {
		if groups[i].pc != groups[j].pc {
			return groups[i].pc < groups[j].pc
		}
		if groups[i].heat != groups[j].heat {
			return groups[i].heat > groups[j].heat
		}
		return groups[i].addr < groups[j].addr
	})

	// Lay the arms and entry chains out in exactly-sized arrays.
	totalEntries := 0
	nPCs := 1
	for gi, g := range groups {
		totalEntries += int(g.rEnd - g.rStart)
		if g.restart >= 0 {
			totalEntries--
		}
		if gi > 0 && g.pc != groups[gi-1].pc {
			nPCs++
		}
	}
	d.arms = make([]addrArm, len(groups))
	d.chains = make([]stateEntry, 0, totalEntries)
	d.pcKeys = make([]int, 0, nPCs)
	d.pcSpan = make([][2]int32, 0, nPCs)
	for gi, g := range groups {
		if gi == 0 || g.pc != groups[gi-1].pc {
			d.pcKeys = append(d.pcKeys, g.pc)
			d.pcSpan = append(d.pcSpan, [2]int32{int32(gi), int32(gi)})
		}
		eStart := int32(len(d.chains))
		for ri := g.rStart; ri < g.rEnd; ri++ {
			if recs[ri].from == 0 {
				continue
			}
			d.chains = append(d.chains, stateEntry{from: recs[ri].from, to: recs[ri].to})
		}
		d.arms[gi] = addrArm{
			addr:    g.addr,
			restart: g.restart,
			eStart:  eStart,
			eEnd:    int32(len(d.chains)),
		}
		d.pcSpan[len(d.pcSpan)-1][1] = int32(gi + 1)
	}
	pcs := d.pcKeys

	// Dense pc index when the instrumented pcs span a reasonable range
	// (pcs are instruction indices, so this is the overwhelmingly common
	// case); otherwise Observe binary-searches pcKeys. A pc's arm range is
	// never empty, so the zero span marks un-instrumented pcs.
	if len(pcs) > 0 {
		span := pcs[len(pcs)-1] - pcs[0] + 1
		if span <= 1<<16 || span <= 64*len(pcs) {
			d.pcMin = pcs[0]
			d.pcDense = make([][2]int32, span)
			for slot, pc := range pcs {
				d.pcDense[pc-d.pcMin] = d.pcSpan[slot]
			}
		}
	}
}

// spanOf returns pc's [start,end) arm range, zero if pc is not instrumented.
// The dense fast path is small enough to inline into Observe.
func (d *DFSM) spanOf(pc int) [2]int32 {
	if d.pcDense != nil {
		if i := pc - d.pcMin; uint(i) < uint(len(d.pcDense)) {
			return d.pcDense[i]
		}
		return [2]int32{}
	}
	return spanSearch(d.pcKeys, d.pcSpan, pc)
}

// spanSearch is the sparse-pc fallback: a binary search over the sorted
// instrumented pcs keys, whose arm ranges are spans.
func spanSearch(keys []int, spans [][2]int32, pc int) [2]int32 {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < pc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(keys) && keys[lo] == pc {
		return spans[lo]
	}
	return [2]int32{}
}

// NumStates returns the number of reachable states, including the start
// state.
func (d *DFSM) NumStates() int { return len(d.States) }

// NumTransitions returns the number of explicit transitions (Table 2's
// "checks" column counts the injected prefix-match checks that implement
// them).
func (d *DFSM) NumTransitions() int { return len(d.transRecs) }

// Start returns the start state (nothing matched).
func (d *DFSM) Start() *State { return d.States[0] }

// transMap materializes the map view of the transition relation on first
// use. Next and the debug renderers are the only readers; keeping the map
// off the Build path keeps construction allocation-lean.
func (d *DFSM) transMap() map[transKey]*State {
	d.transOnce.Do(func() {
		m := make(map[transKey]*State, len(d.transRecs))
		for _, t := range d.transRecs {
			m[transKey{state: int(t.from), r: ref.Ref{PC: t.pc, Addr: t.addr}}] = d.States[t.to]
		}
		d.trans = m
	})
	return d.trans
}

// Next returns d(s, r), with the implicit reset to the start state for
// undefined transitions.
func (d *DFSM) Next(s *State, r ref.Ref) *State {
	if t, ok := d.transMap()[transKey{state: s.ID, r: r}]; ok {
		return t
	}
	return d.States[0]
}

// PCs returns the sorted set of instruction PCs at which detection code must
// be injected — every pc occurring in any stream head.
func (d *DFSM) PCs() []int {
	set := map[int]struct{}{}
	for _, s := range d.Streams {
		for _, r := range s.Head {
			set[r.PC] = struct{}{}
		}
	}
	pcs := make([]int, 0, len(set))
	for pc := range set {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	return pcs
}

// String renders the DFSM's states and transitions for debugging.
func (d *DFSM) String() string {
	var b strings.Builder
	for _, s := range d.States {
		fmt.Fprintf(&b, "state %d {", s.ID)
		for i, e := range s.Elements {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "[%d,%d]", e.Stream, e.Seen)
		}
		b.WriteString("}")
		if len(s.Prefetches) > 0 {
			fmt.Fprintf(&b, " prefetch %d addrs", len(s.Prefetches))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Matcher drives a DFSM over a stream of observed data references at the
// injected check sites. It is the runtime counterpart of the generated code
// in paper Figure 7. It keeps only what Observe reads — the compiled tables
// and each state's prefetch list — plus the machine's two counts, so an
// installed matcher does not hold the DFSM's transition relation, split
// streams or build arenas alive.
type Matcher struct {
	cur      int32 // current state ID
	pcMin    int
	pcDense  [][2]int32
	pcKeys   []int // sorted instrumented pcs: the sparse-pc index and PCs
	pcSpan   [][2]int32
	arms     []addrArm
	chains   []stateEntry
	prefetch [][]uint64 // per state ID: the addresses issued on entry

	states, transitions int
}

// NewMatcher returns a matcher positioned at the start state.
func NewMatcher(d *DFSM) *Matcher {
	prefetch := make([][]uint64, len(d.States))
	for id, st := range d.States {
		prefetch[id] = st.Prefetches
	}
	return &Matcher{
		pcMin:       d.pcMin,
		pcDense:     d.pcDense,
		pcKeys:      d.pcKeys,
		pcSpan:      d.pcSpan,
		arms:        d.arms,
		chains:      d.chains,
		prefetch:    prefetch,
		states:      d.NumStates(),
		transitions: d.NumTransitions(),
	}
}

// Reset returns the matcher to the start state (nothing matched).
func (m *Matcher) Reset() { m.cur = 0 }

// NumStates returns the number of DFSM states, including the start state.
// The paper observes close to headLen×n+1 states for n streams rather than
// the exponential worst case (§3.1).
func (m *Matcher) NumStates() int { return m.states }

// NumTransitions returns the number of explicit DFSM transitions.
func (m *Matcher) NumTransitions() int { return m.transitions }

// PCs returns the sorted instruction addresses at which detection code must
// be injected: every pc appearing in any stream's head. Every head reference
// labels a transition, so these are exactly the pcs of the compiled tables.
func (m *Matcher) PCs() []int { return append([]int{}, m.pcKeys...) }

// Observe consumes one data reference. It returns the addresses to prefetch
// (non-nil exactly when a stream head completes) and the number of
// comparisons the injected check chain executed, which the caller charges
// as detection overhead.
//
// The comparison count follows the structure of the generated code in paper
// Figure 7: an outer if-chain over the addresses checked at this pc, then an
// inner if-chain over source states, with the restart transition as the
// arm's else branch. A pc outside PCs has no injected code, so it costs 0
// comparisons; the reference still resets the match to the start state,
// since the head it interrupts no longer runs contiguously. Observe
// performs no allocations and no map lookups; the returned prefetch slice
// aliases the machine's state table.
func (m *Matcher) Observe(r ref.Ref) (prefetch []uint64, comparisons int) {
	var span [2]int32
	if m.pcDense != nil {
		if i := r.PC - m.pcMin; uint(i) < uint(len(m.pcDense)) {
			span = m.pcDense[i]
		}
	} else {
		span = spanSearch(m.pcKeys, m.pcSpan, r.PC)
	}
	if span[0] == span[1] {
		// Un-instrumented pc: no detection code runs here.
		m.cur = 0
		return nil, 0
	}
	return m.stepArms(r.Addr, span)
}

// stepArms walks the address arms of one instrumented pc (the out-of-line
// part of Observe, keeping Observe itself inlinable for the frequent
// un-instrumented case).
func (m *Matcher) stepArms(addr uint64, span [2]int32) (prefetch []uint64, comparisons int) {
	prev := m.cur
	for ai := span[0]; ai < span[1]; ai++ {
		arm := &m.arms[ai]
		comparisons++ // address compare
		if arm.addr != addr {
			continue
		}
		next := arm.restart // else branch: d(start, a), possibly -1
		for ei := arm.eStart; ei < arm.eEnd; ei++ {
			comparisons++ // state compare
			if m.chains[ei].from == m.cur {
				next = m.chains[ei].to
				break
			}
		}
		if next < 0 {
			next = 0
		}
		m.cur = next
		if prev != m.cur {
			if p := m.prefetch[m.cur]; len(p) > 0 {
				return p, comparisons
			}
		}
		return nil, comparisons
	}
	// Address matched no arm: d(s,a) = {}, reset to start (the final
	// "else v.seen = 0" of Figure 7).
	m.cur = 0
	return nil, comparisons
}

// WriteDOT renders the DFSM in Graphviz DOT format, in the style of the
// paper's Figure 8: nodes are states labelled with their element sets,
// edges are transitions labelled with the observed reference, and states
// with prefetch annotations are drawn doubled.
func (d *DFSM) WriteDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph dfsm {\n  rankdir=LR;\n  node [fontname=\"monospace\"];\n")
	for _, s := range d.States {
		label := "{}"
		if len(s.Elements) > 0 {
			var eb strings.Builder
			eb.WriteByte('{')
			for i, e := range s.Elements {
				if i > 0 {
					eb.WriteByte(' ')
				}
				fmt.Fprintf(&eb, "[v%d,%d]", e.Stream, e.Seen)
			}
			eb.WriteByte('}')
			label = eb.String()
		}
		shape := "circle"
		if len(s.Prefetches) > 0 {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  s%d [label=%q shape=%s];\n", s.ID, label, shape)
	}
	// Deterministic edge order.
	edges := make([]transRec, len(d.transRecs))
	copy(edges, d.transRecs)
	sort.Slice(edges, func(i, j int) bool {
		a, e := edges[i], edges[j]
		if a.from != e.from {
			return a.from < e.from
		}
		if a.pc != e.pc {
			return a.pc < e.pc
		}
		if a.addr != e.addr {
			return a.addr < e.addr
		}
		return a.to < e.to
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "  s%d -> s%d [label=\"pc%d:0x%x\"];\n", e.from, e.to, e.pc, e.addr)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
