// Package workload generates the six benchmark programs of the paper's
// evaluation (§4.1): analogs of the memory-performance-limited SPECint2000
// benchmarks vpr, mcf, twolf, parser, and vortex, plus boxsim, a graphics
// application simulating spheres bouncing in a box.
//
// Substitution note (see DESIGN.md §2): SPEC sources and reference inputs
// are not redistributable, and native execution is unavailable, so each
// benchmark is a generated virtual-ISA program engineered to reproduce the
// properties the paper's effect depends on:
//
//   - pointer-chasing references dominate, and hot-chain reuse distances
//     exceed the L2 capacity, so traversals miss without prefetching;
//   - a small number of hot data streams — repeated traversals of the same
//     object chains, 15-25 references each — pass the 1%-of-trace heat
//     threshold, with per-benchmark counts shaped to the paper's Table 2
//     (14-41 streams, 6-12 procedures);
//   - traversal order is driven by long shuffled schedule rings (wrapping
//     only every ~37 laps), so a chain's neighbors keep changing and
//     Sequitur isolates each chain's chase sequence as its own stream
//     instead of fusing whole laps;
//   - layout is scattered (all chains' objects interleaved in one global
//     shuffled allocation order, one object per block) so sequentially-
//     following blocks belong to unrelated chains and are useless to
//     prefetch — except for parser, whose chains are allocated in traversal
//     order, making the Seq-pref baseline profitable exactly as in §4.3;
//   - compute-per-reference varies per benchmark (vortex least memory
//     bound, vpr/mcf most), spreading Dyn-pref wins across the paper's
//     5-19% range;
//   - vpr, twolf, and boxsim switch between program phases (distinct hot
//     chain sets), exercising adaptive re-optimization.
//
// The cache geometry used with these workloads is the paper's hierarchy
// scaled down 8x (2KB 4-way L1, 32KB 8-way L2, 32-byte blocks, same
// latencies); working sets are scaled with it, keeping every reuse-distance
// relationship intact while making full profile-optimize-hibernate cycles
// affordable in simulation.
package workload

import (
	"fmt"

	"hotprefetch/internal/heap"
	"hotprefetch/internal/machine"
	"hotprefetch/internal/memsim"
	"hotprefetch/internal/ref"
	"hotprefetch/internal/vulcan"
)

// CacheConfig returns the scaled cache hierarchy used for the workload
// experiments: the paper's geometry (16KB/256KB, 4/8-way, 32B blocks, §4.1)
// with capacities divided by 8 and latencies preserved.
func CacheConfig() memsim.Config {
	return memsim.Config{
		BlockSize:    32,
		L1Size:       2 << 10,
		L1Assoc:      4,
		L2Size:       32 << 10,
		L2Assoc:      8,
		L2HitLatency: 10,
		MemLatency:   100,
	}
}

// Params defines one generated benchmark.
type Params struct {
	Name string
	// Seed drives all layout and schedule shuffling.
	Seed int64

	// HotChains is the number of frequently-traversed chains per phase —
	// the hot data stream population.
	HotChains int
	// ChainLen is the number of objects per chain; one traversal is one
	// occurrence of the chain's hot data stream.
	ChainLen int
	// Repeats is how many times each hot chain is traversed per lap,
	// interleaved with warm traffic so repeats stay far apart.
	Repeats int

	// WarmPool and WarmPerLap control background traffic: a large pool of
	// chains traversed round-robin, WarmPerLap per lap. Warm chains are
	// individually too cold to pass the heat threshold but collectively
	// push hot-chain reuse distances past L2.
	WarmPool   int
	WarmPerLap int

	// ArithPerRef is the compute (cycles) between consecutive references —
	// the memory-boundedness dial.
	ArithPerRef int64

	// Sequential lays hot chains out in traversal order, contiguous
	// (parser). Otherwise objects are shuffled with a one-block gap.
	Sequential bool

	// HotProcs is the number of traversal procedures the hot chains are
	// distributed over (Table 2's "procedures modified").
	HotProcs int

	// SharedHeads groups this many chains behind a common sentinel object
	// whose reference begins each of their traversals. Streams in a group
	// are therefore ambiguous at their first reference and only
	// disambiguate at the second — the reason the paper's prefix length of
	// 1 "may hurt prefetching accuracy" while 2 suffices (§1, §4.3).
	// Values below 2 disable sharing.
	SharedHeads int

	// Phases is the number of distinct hot-chain sets; PhaseBlocks is how
	// many phase blocks execute (rotating through the sets), and
	// LapsPerBlock is the laps per block.
	Phases       int
	PhaseBlocks  int
	LapsPerBlock int
}

// RefsPerLap estimates the data references one lap performs.
func (p Params) RefsPerLap() int {
	perEntry := p.ChainLen + 2 // ring node + head + chase
	if p.SharedHeads >= 2 {
		perEntry += 2 // sentinel pointer + sentinel reference
	}
	return p.HotChains*p.Repeats*perEntry + p.WarmPerLap*perEntry
}

// Instance is a built benchmark: a program generator plus the initial heap
// image shared by all machines built from it.
type Instance struct {
	Params Params
	image  []uint64
	words  int
	build  func(instrument bool) *machine.Program
}

// NewMachine builds a fresh machine running the benchmark. Each call
// constructs an independent program (instrumented or not) over an identical
// initial heap, so baseline and optimized runs are directly comparable.
func (in *Instance) NewMachine(cache memsim.Config, instrument bool) *machine.Machine {
	m := machine.New(in.build(instrument), in.words, cache)
	copy(m.Mem, in.image)
	return m
}

// Capture runs a fresh instrumented machine over the benchmark and returns
// its first n data references, fewer if the program halts first. Every
// machine built from the instance starts from the same heap, so two calls
// return identical traces.
func (in *Instance) Capture(n int) ([]ref.Ref, error) {
	m := in.NewMachine(CacheConfig(), true)
	c := &capture{refs: make([]ref.Ref, 0, max(n, 0)), n: n, m: m}
	m.RT = c
	m.Start()
	for len(c.refs) < n {
		st, err := m.Run(0)
		if err != nil {
			return nil, err
		}
		if st == machine.Halted {
			break
		}
	}
	return c.refs, nil
}

// capture is the machine.Runtime behind Capture: it records every traced
// reference and yields the machine once n are recorded.
type capture struct {
	refs []ref.Ref
	n    int
	m    *machine.Machine
}

func (c *capture) Check(int) (machine.Version, uint64) { return machine.VersionInstrumented, 0 }

func (c *capture) TraceRef(pc int, addr machine.Word, _ bool) uint64 {
	if c.refs = append(c.refs, ref.Ref{PC: pc, Addr: addr}); len(c.refs) >= c.n {
		c.m.Yield()
	}
	return 0
}

func (c *capture) Match(int, machine.Word) ([]machine.Word, uint64) { return nil, 0 }

// TotalLaps returns the number of laps the benchmark executes.
func (in *Instance) TotalLaps() int {
	return in.Params.PhaseBlocks * in.Params.LapsPerBlock
}

// cursorBase is where the per-procedure schedule ring cursors live; the
// arena starts above them.
const (
	cursorBase = 16
	arenaStart = 1024
	nodeWords  = 4 // 32 bytes: one object per cache block
	ringWords  = 3 // ring node: {next, chainHead, sentinel}
)

// Build generates the benchmark described by p.
func Build(p Params) *Instance {
	if p.Phases < 1 {
		p.Phases = 1
	}
	if p.Repeats < 1 {
		p.Repeats = 1
	}
	if p.HotProcs < 1 {
		p.HotProcs = 1
	}

	// ---- Heap planning ------------------------------------------------
	totalHot := p.Phases * p.HotChains
	totalChains := totalHot + p.WarmPool
	const schedRev = 37 // must match schedRevLaps below
	need := uint64(totalChains)*uint64(p.ChainLen+1)*uint64(nodeWords*8) +
		uint64(totalHot*p.Repeats*schedRev+p.WarmPool)*ringWords*8 +
		arenaStart + 65536
	words := int(need / 8)

	img := make([]uint64, words)
	arena := heap.NewArena(img, arenaStart)
	// Different inputs see different heap offsets (allocations preceding
	// the structures vary with the input), so concrete addresses differ
	// across seeds even for sequentially-allocated structures.
	arena.Skip(uint64(p.Seed%97)*40 + 8)

	// Allocate every chain node. Scattered benchmarks interleave ALL nodes
	// of all chains in one global shuffled order, so physically adjacent
	// blocks belong to unrelated chains and sequential prefetching fetches
	// garbage. Parser's hot chains are instead laid out contiguously in
	// traversal order (sequentially allocated hot data streams, §4.3);
	// only its warm pool is interleaved.
	nodeAddrs := make([][]uint64, totalChains)
	for c := range nodeAddrs {
		nodeAddrs[c] = make([]uint64, p.ChainLen)
	}
	seqChains := 0
	if p.Sequential {
		seqChains = totalHot
		for c := 0; c < totalHot; c++ {
			for i := 0; i < p.ChainLen; i++ {
				nodeAddrs[c][i] = arena.AllocWords(nodeWords)
			}
		}
	}
	scattered := (totalChains - seqChains) * p.ChainLen
	perm := heap.ShuffledPerm(scattered, p.Seed+7919)
	slots := make([]uint64, scattered)
	for i := range slots {
		slots[i] = arena.AllocWords(nodeWords)
	}
	for i, pi := range perm {
		c := seqChains + i/p.ChainLen
		nodeAddrs[c][i%p.ChainLen] = slots[pi]
	}
	// Link each chain in logical order, nil-terminated (next at offset 0).
	for c := 0; c < totalChains; c++ {
		for i := 0; i < p.ChainLen; i++ {
			next := uint64(0)
			if i+1 < p.ChainLen {
				next = nodeAddrs[c][i+1]
			}
			arena.Write(nodeAddrs[c][i], next)
		}
	}
	warmHeads := make([]uint64, p.WarmPool)
	for i := range warmHeads {
		warmHeads[i] = nodeAddrs[totalHot+i][0]
	}

	// Sentinel objects: chains in the same SharedHeads group begin every
	// traversal with a reference to the group's shared sentinel, so their
	// streams collide on the first reference and disambiguate on the
	// second. Groups are formed within each traversal procedure (below for
	// hot chains, here for the warm pool), because ambiguity requires the
	// shared reference to come from the same instruction.
	sentinelOf := make([]uint64, totalChains)
	newSentinel := func(tag int) uint64 {
		s := arena.AllocWords(nodeWords)
		arena.Write(s, uint64(tag)) // arbitrary payload
		return s
	}
	if p.SharedHeads >= 2 {
		var current uint64
		for i := 0; i < p.WarmPool; i++ {
			if i%p.SharedHeads == 0 {
				current = newSentinel(totalHot + i)
			}
			sentinelOf[totalHot+i] = current
		}
	}

	// mkRing builds a circular schedule of chain heads (with their group
	// sentinels) and stores its first node in the cursor slot. Walkers
	// persist their position there, so the schedule rotates across calls.
	mkRing := func(heads, sentinels []uint64, cursorSlot uint64) {
		nodes := arena.Ring(len(heads), ringWords, 0, nil, 0)
		for i, n := range nodes {
			arena.Write(n+8, heads[i])
			if sentinels != nil {
				arena.Write(n+16, sentinels[i])
			}
		}
		arena.Write(cursorSlot, nodes[0])
	}

	// Hot schedule rings: one per (phase, proc). Each ring is a long
	// shuffled schedule — every chain of the proc appears Repeats times per
	// lap on average, and the ring only wraps every schedRevLaps laps.
	// Because every ring node has a distinct address and chain neighbors
	// are randomized over the whole revolution, no super-sequence spanning
	// two chains ever repeats within a profiling window: the repeating
	// units Sequitur isolates are exactly the per-chain chase sequences,
	// the benchmark's hot data streams.
	const schedRevLaps = 37
	cursorSlot := func(idx int) uint64 { return cursorBase + uint64(idx)*8 }
	type hotProc struct {
		cursor  uint64
		perCall int
	}
	hotProcs := make([][]hotProc, p.Phases)
	slot := 0
	for ph := 0; ph < p.Phases; ph++ {
		base := ph * p.HotChains
		hotProcs[ph] = make([]hotProc, p.HotProcs)
		for proc := 0; proc < p.HotProcs; proc++ {
			var mine []int // global chain indices owned by this proc
			for c := proc; c < p.HotChains; c += p.HotProcs {
				mine = append(mine, base+c)
			}
			if p.SharedHeads >= 2 {
				// Sentinel groups within this proc's chain set.
				var current uint64
				for j, c := range mine {
					if j%p.SharedHeads == 0 {
						current = newSentinel(c)
					}
					sentinelOf[c] = current
				}
			}
			sched := make([]int, 0, len(mine)*p.Repeats*schedRevLaps)
			for r := 0; r < p.Repeats*schedRevLaps; r++ {
				sched = append(sched, mine...)
			}
			perm := heap.ShuffledPerm(len(sched), p.Seed+int64(ph*1000+proc)*31337)
			heads := make([]uint64, len(sched))
			sentinels := make([]uint64, len(sched))
			for i, pi := range perm {
				heads[i] = nodeAddrs[sched[pi]][0]
				sentinels[i] = sentinelOf[sched[pi]]
			}
			cs := cursorSlot(slot)
			slot++
			mkRing(heads, sentinels, cs)
			hotProcs[ph][proc] = hotProc{cursor: cs, perCall: len(mine)}
		}
	}

	// Warm ring: the whole pool in shuffled order.
	warmCursor := cursorSlot(slot)
	slot++
	{
		perm := heap.ShuffledPerm(len(warmHeads), p.Seed+424243)
		heads := make([]uint64, len(warmHeads))
		sentinels := make([]uint64, len(warmHeads))
		for i, pi := range perm {
			heads[i] = warmHeads[pi]
			sentinels[i] = sentinelOf[totalHot+pi]
		}
		mkRing(heads, sentinels, warmCursor)
	}

	// ---- Program ------------------------------------------------------
	// emitWalker produces a procedure that advances a schedule ring by
	// `entries` nodes, chasing each node's chain with straight-line loads
	// (one pc per reference, as in the paper's hot data streams).
	emitWalker := func(b *machine.Builder, name string, cursor uint64, entries, chainLen int, arith int64) {
		pb := b.Proc(name)
		pb.Const(2, int64(cursor)).
			Load(3, 2, 0). // ring cursor
			Const(4, int64(entries)).
			Label("ring").
			Load(5, 3, 8) // chain head from ring node
		if p.SharedHeads >= 2 {
			// Every traversal starts at the group's shared sentinel — the
			// first reference of the chain's hot data stream. It must
			// immediately precede the chase so Sequitur folds it into the
			// stream's repeating word.
			pb.Load(6, 3, 16) // sentinel pointer from ring node
			pb.Load(6, 6, 0)  // sentinel reference (shared within the group)
		}
		for n := 0; n < chainLen; n++ {
			pb.Load(5, 5, 0) // r5 = r5->next
			if arith > 0 {
				pb.Arith(arith)
			}
		}
		pb.Load(3, 3, 0). // advance ring
					Loop(4, "ring").
					Store(2, 0, 3). // persist cursor
					Ret()
	}

	buildProg := func(instrument bool) *machine.Program {
		b := machine.NewBuilder()
		for ph := 0; ph < p.Phases; ph++ {
			for proc := 0; proc < p.HotProcs; proc++ {
				hp := hotProcs[ph][proc]
				emitWalker(b, fmt.Sprintf("work_p%d_%d", ph, proc),
					hp.cursor, hp.perCall, p.ChainLen, p.ArithPerRef)
			}
		}
		warmSlice := p.WarmPerLap / p.Repeats
		if warmSlice < 1 {
			warmSlice = 1
		}
		emitWalker(b, "warm_sweep", warmCursor, warmSlice, p.ChainLen, 1)

		for ph := 0; ph < p.Phases; ph++ {
			lb := b.Proc(fmt.Sprintf("lap_p%d", ph))
			for r := 0; r < p.Repeats; r++ {
				for proc := 0; proc < p.HotProcs; proc++ {
					lb.Call(fmt.Sprintf("work_p%d_%d", ph, proc))
				}
				lb.Call("warm_sweep")
			}
			lb.Ret()
		}

		mb := b.Proc("main")
		for blk := 0; blk < p.PhaseBlocks; blk++ {
			label := fmt.Sprintf("blk%d", blk)
			mb.Const(1, int64(p.LapsPerBlock)).
				Label(label).
				Call(fmt.Sprintf("lap_p%d", blk%p.Phases)).
				Loop(1, label)
		}
		mb.Ret()

		prog, err := b.Build("main")
		if err != nil {
			panic("workload: " + err.Error()) // generator bug, not user input
		}
		if instrument {
			vulcan.Instrument(prog)
		}
		return prog
	}

	return &Instance{Params: p, image: img, words: words, build: buildProg}
}
