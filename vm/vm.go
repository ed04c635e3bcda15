// Package vm exposes the reproduction's execution substrate for custom
// workloads: assemble a program in the virtual ISA, lay out a heap, and run
// it under the complete dynamic prefetching system — or unoptimized, for
// comparison.
//
// The assembly format is line-oriented (see Assemble). Programs address a
// flat byte-addressed heap; loads of pointer fields enable the
// pointer-chasing traversals the paper's optimizer targets.
//
//	prog, _ := vm.Assemble(src)
//	m := vm.NewMachine(prog, vm.MachineConfig{HeapWords: 1 << 16})
//	m.WriteWord(16, headAddr)               // wire up data structures
//	baseline, _ := m.RunUnoptimized()
//	report, _ := m.RunOptimized(vm.DefaultOptimizeConfig())
package vm

import (
	"fmt"
	"io"

	"hotprefetch/internal/burst"
	"hotprefetch/internal/heap"
	"hotprefetch/internal/hotds"
	"hotprefetch/internal/machine"
	"hotprefetch/internal/memsim"
	"hotprefetch/internal/opt"
	"hotprefetch/internal/vulcan"
)

// Program is an assembled virtual-ISA program.
type Program struct {
	src string
}

// Assemble parses a program in the textual assembly format:
//
//	; comment
//	proc main
//	  const r1, 100
//	head:
//	  load r2, [r1+8]       ; r2 = Mem[r1+8], a data reference
//	  store [r1+16], r2
//	  arith 3               ; 3 cycles of computation
//	  loop r1, head         ; decrement r1, branch if non-zero
//	  beqz r2, head         ; bnez also available
//	  constproc r3, helper  ; r3 = proc index, for calli
//	  calli r3
//	  call helper
//	  ret
//	proc helper
//	  ret
//
// Registers are r0..r15; the entry point is "main" or the first procedure.
// Assemble validates labels, call targets, and branch ranges.
func Assemble(src string) (*Program, error) {
	// Validate eagerly so errors surface at assembly time; the program is
	// re-assembled per machine because instrumentation mutates it.
	if _, err := machine.Assemble(src); err != nil {
		return nil, err
	}
	return &Program{src: src}, nil
}

// Disasm returns the program's disassembly.
func (p *Program) Disasm() string {
	prog, err := machine.Assemble(p.src)
	if err != nil {
		// Assemble validated the source already.
		panic("vm: program became unassemblable: " + err.Error())
	}
	return prog.Disasm()
}

// CacheConfig describes the simulated two-level cache hierarchy. Sizes and
// BlockSize must be powers of two, each level's capacity must divide into
// a power-of-two number of sets of its associativity's blocks (so the
// associativity is a power of two too), and a way (capacity /
// associativity) must span at least 4 bytes; a run on any other geometry
// returns an error.
type CacheConfig struct {
	BlockSize   int // bytes per cache block (power of two)
	L1Size      int // bytes
	L1Assoc     int
	L2Size      int // bytes
	L2Assoc     int
	L2HitCycles uint64 // extra cycles for an L1 miss hitting L2
	MemCycles   uint64 // extra cycles for a memory access
	MaxInflight int    // outstanding prefetch fills (0 = unlimited)
}

// DefaultCacheConfig returns the paper's hierarchy (16KB 4-way L1D, 256KB
// 8-way L2, 32-byte blocks, §4.1).
func DefaultCacheConfig() CacheConfig {
	d := memsim.DefaultConfig()
	return CacheConfig{
		BlockSize: d.BlockSize, L1Size: d.L1Size, L1Assoc: d.L1Assoc,
		L2Size: d.L2Size, L2Assoc: d.L2Assoc,
		L2HitCycles: d.L2HitLatency, MemCycles: d.MemLatency,
	}
}

func (c CacheConfig) internal() memsim.Config {
	return memsim.Config{
		BlockSize: c.BlockSize, L1Size: c.L1Size, L1Assoc: c.L1Assoc,
		L2Size: c.L2Size, L2Assoc: c.L2Assoc,
		L2HitLatency: c.L2HitCycles, MemLatency: c.MemCycles,
		MaxInflight: c.MaxInflight,
	}
}

// MachineConfig sizes a machine.
type MachineConfig struct {
	// HeapWords is the simulated heap size in 8-byte words.
	HeapWords int
	// Cache defaults to DefaultCacheConfig when zero.
	Cache CacheConfig
}

// Machine is a simulated machine loaded with a program and a heap image.
// Build the heap with WriteWord/Alloc helpers, then call RunUnoptimized
// and/or RunOptimized; each run re-executes from a pristine copy of the
// heap, so results are directly comparable.
type Machine struct {
	prog      *Program
	cfg       MachineConfig
	image     []uint64
	allocator *heap.Arena
}

// NewMachine creates a machine for prog.
func NewMachine(prog *Program, cfg MachineConfig) *Machine {
	if cfg.HeapWords <= 0 {
		cfg.HeapWords = 1 << 16
	}
	if cfg.Cache == (CacheConfig{}) {
		cfg.Cache = DefaultCacheConfig()
	}
	img := make([]uint64, cfg.HeapWords)
	return &Machine{
		prog:      prog,
		cfg:       cfg,
		image:     img,
		allocator: heap.NewArena(img, 1024),
	}
}

// WriteWord stores val at byte address addr in the initial heap image.
func (m *Machine) WriteWord(addr, val uint64) { m.image[addr/8] = val }

// ReadWord reads the initial heap image at byte address addr.
func (m *Machine) ReadWord(addr uint64) uint64 { return m.image[addr/8] }

// Alloc reserves size bytes in the heap image (8-byte aligned bump
// allocation, above the first 1KB which is left for fixed slots) and
// returns the address.
func (m *Machine) Alloc(size int) uint64 { return m.allocator.Alloc(uint64(size)) }

// AllocList allocates a nil-terminated linked list of n nodes of nodeWords
// words, linked through word offset 0, physically shuffled when scatter is
// true. It returns the node addresses in traversal order.
func (m *Machine) AllocList(n, nodeWords int, scatter bool, seed int64) []uint64 {
	var perm []int
	if scatter {
		perm = heap.ShuffledPerm(n, seed)
	}
	return m.allocator.List(n, nodeWords, 0, perm, 0)
}

func (m *Machine) instantiate(instrument bool) (*machine.Machine, error) {
	cache := m.cfg.Cache.internal()
	if err := cache.Validate(); err != nil {
		return nil, fmt.Errorf("vm: cache config: %w", err)
	}
	prog, err := machine.Assemble(m.prog.src)
	if err != nil {
		return nil, err
	}
	if instrument {
		vulcan.Instrument(prog)
	}
	mm := machine.New(prog, m.cfg.HeapWords, cache)
	copy(mm.Mem, m.image)
	return mm, nil
}

// RunUnoptimized executes the program with no instrumentation and returns
// its execution time in simulated cycles.
func (m *Machine) RunUnoptimized() (uint64, error) {
	mm, err := m.instantiate(false)
	if err != nil {
		return 0, err
	}
	return opt.RunBaseline(mm)
}

// OptimizeConfig controls the dynamic prefetching system for RunOptimized.
type OptimizeConfig struct {
	// SamplingDenominator sets the profiling rate: one burst check in this
	// many (e.g. 20 = 5%). The paper uses 200 (0.5%, §4.1).
	SamplingDenominator int
	// BurstChecks is the profiling burst length in checks (paper: 60).
	BurstChecks int
	// AwakePeriods and HibernatePeriods set the duty cycle in burst-periods
	// (paper: 50 awake, 2450 hibernating).
	AwakePeriods, HibernatePeriods int
	// HeadLen is the stream prefix length to match before prefetching
	// (paper: 2).
	HeadLen int
	// MinStreamLen / MaxStreamLen / MinCoverage configure hot data stream
	// detection (paper: >10 unique refs, 1% of trace).
	MinStreamLen, MaxStreamLen int
	MinCoverage                float64
	// ScheduleChunk > 0 spreads tail prefetches over subsequent checks.
	ScheduleChunk int
	// Static keeps the first injection forever (one-shot static scheme).
	Static bool
	// Events receives the optimizer's decision log when non-nil.
	Events io.Writer
}

// DefaultOptimizeConfig returns settings suited to programs that run for
// millions of cycles: 5% sampling in 60-check bursts, hibernation-dominated
// duty cycle, the paper's analysis thresholds.
func DefaultOptimizeConfig() OptimizeConfig {
	return OptimizeConfig{
		SamplingDenominator: 20,
		BurstChecks:         60,
		AwakePeriods:        8,
		HibernatePeriods:    80,
		HeadLen:             2,
		MinStreamLen:        10,
		MaxStreamLen:        200,
		MinCoverage:         0.01,
	}
}

// Report summarizes an optimized run.
type Report struct {
	Cycles           uint64 // execution time under the optimizer
	OptCycles        int    // completed profile/optimize/hibernate cycles
	HotStreams       int    // per-cycle average
	ProcsModified    int    // per-cycle average
	Prefetches       uint64
	UsefulPrefetches uint64
	L1MissRatio      float64
}

// RunOptimized executes the program under the dynamic prefetching system.
func (m *Machine) RunOptimized(cfg OptimizeConfig) (Report, error) {
	if cfg.SamplingDenominator < 2 {
		return Report{}, fmt.Errorf("vm: SamplingDenominator must be >= 2, got %d", cfg.SamplingDenominator)
	}
	if cfg.BurstChecks < 1 {
		return Report{}, fmt.Errorf("vm: BurstChecks must be >= 1")
	}
	mm, err := m.instantiate(true)
	if err != nil {
		return Report{}, err
	}
	ocfg := opt.Config{
		Mode: opt.ModeDynPref,
		Burst: burst.Config{
			NCheck0:     int64(cfg.BurstChecks) * int64(cfg.SamplingDenominator-1),
			NInstr0:     int64(cfg.BurstChecks),
			NAwake0:     int64(cfg.AwakePeriods),
			NHibernate0: int64(cfg.HibernatePeriods),
			CheckCost:   2,
		},
		Analysis: hotds.Config{
			MinLen:      uint64(cfg.MinStreamLen),
			MaxLen:      uint64(cfg.MaxStreamLen),
			MinCoverage: cfg.MinCoverage,
			MaxStreams:  100,
		},
		HeadLen:       cfg.HeadLen,
		Costs:         opt.DefaultCostModel(),
		ScheduleChunk: cfg.ScheduleChunk,
		Static:        cfg.Static,
	}
	o := opt.New(mm, ocfg)
	if cfg.Events != nil {
		w := cfg.Events
		o.SetEventSink(func(e opt.Event) { fmt.Fprintln(w, e) })
	}
	if err := mm.RunToCompletion(); err != nil {
		return Report{}, err
	}
	res := o.Result()
	avg := res.AvgPerCycle()
	return Report{
		Cycles:           res.ExecCycles,
		OptCycles:        res.OptCycles(),
		HotStreams:       avg.HotStreams,
		ProcsModified:    avg.ProcsModified,
		Prefetches:       res.Cache.Prefetches,
		UsefulPrefetches: res.Cache.UsefulPrefetches,
		L1MissRatio:      res.Cache.MissRatio(),
	}, nil
}
