package main

import (
	"fmt"
	"time"

	"hotprefetch"
	"hotprefetch/client"
	"hotprefetch/internal/machine"
	"hotprefetch/internal/memsim"
	"hotprefetch/internal/workload"
)

// spec is one benchmark workload: a generated program, how much of its
// reference trace one round replays, and how the tenant and the operator
// read path are configured. README.md records why each was chosen.
type spec struct {
	name string

	// instance builds the program from the run's seed.
	instance func(seed int64) *workload.Instance
	// refs is the trace length one round replays.
	refs int
	// burst is the tenant's bursty-sampling front end (off unless set).
	burst hotprefetch.BurstConfig
	// readEvery is the number of publishes between operator read rounds;
	// zero means one read round at the end of each round only.
	readEvery int
	// mustOptimize fails the run if the supervisor never publishes an
	// optimized matcher.
	mustOptimize bool
}

var specs = []spec{
	{
		name: "vpr-live",
		instance: func(seed int64) *workload.Instance {
			p := workload.Vpr()
			p.Seed = seed
			return workload.Build(p)
		},
		// One phase block is 450 laps of ~5070 references; 2.5M references
		// cross the first phase change and leave room to re-optimize.
		refs:         2_500_000,
		mustOptimize: true,
	},
	{
		name: "mcf-sampled",
		instance: func(seed int64) *workload.Instance {
			p := workload.Mcf()
			p.Seed = seed
			return workload.Build(p)
		},
		refs: 2_000_000,
		// The paper's awake counters (0.5% in bursts of 60) with hibernation
		// effectively off, as the sampling study in internal/experiment runs
		// them: a round sees the anchor rate throughout.
		burst:        hotprefetch.BurstConfig{Enabled: true, NAwake: 1 << 30},
		readEvery:    4,
		mustOptimize: true,
	},
	{
		name: "health-nogain",
		instance: func(seed int64) *workload.Instance {
			p := workload.DefaultHealth()
			p.Seed = seed
			return workload.BuildHealth(p)
		},
		refs: 1_000_000,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// input is what set-up produces for the rounds: the captured trace and the
// no-prefetch baseline replay of it.
type input struct {
	trace      []client.Ref
	base       memsim.Stats
	baseCycles uint64
}

// setupChunks is how many pieces the trace capture and the baseline replay
// are each timed in; see composedTime.
const setupChunks = 16

// prepare builds the workload, captures its trace and replays the trace
// once with prefetching off: the set-up the benchmark times as setup_s. It
// returns the wall time of each piece of that work in a fixed order: the
// build, setupChunks capture chunks and setupChunks replay chunks.
func prepare(sp spec, seed int64) (input, []time.Duration, error) {
	pieces := make([]time.Duration, 0, 1+2*setupChunks)
	last := time.Now()
	lap := func() {
		now := time.Now()
		pieces = append(pieces, now.Sub(last))
		last = now
	}
	inst := sp.instance(seed)
	lap()
	trace, err := captureTrace(inst, sp.refs, lap)
	if err != nil {
		return input{}, nil, err
	}
	if len(trace) < sp.refs {
		return input{}, nil, fmt.Errorf("%s: program halted after %d of %d references", sp.name, len(trace), sp.refs)
	}
	h := memsim.New(workload.CacheConfig())
	var now uint64
	for c := 0; c < setupChunks; c++ {
		for _, r := range trace[c*len(trace)/setupChunks : (c+1)*len(trace)/setupChunks] {
			now += 1 + h.Access(now, r.PC, r.Addr, false)
		}
		lap()
	}
	return input{trace: trace, base: h.Stats(), baseCycles: now}, pieces, nil
}

// collector is a machine.Runtime that records data references of an
// instrumented run, stopping the machine whenever its budget runs out.
type collector struct {
	refs   []client.Ref
	budget int
	m      *machine.Machine
}

func (c *collector) Check(int) (machine.Version, uint64) { return machine.VersionInstrumented, 0 }

func (c *collector) TraceRef(pc int, addr machine.Word, _ bool) uint64 {
	c.refs = append(c.refs, client.Ref{PC: pc, Addr: addr})
	if c.budget--; c.budget <= 0 {
		c.m.Yield()
	}
	return 0
}

func (c *collector) Match(int, machine.Word) ([]machine.Word, uint64) { return nil, 0 }

// captureTrace runs the program until it has made refs data references (or
// halts), calling lap after each of setupChunks equal chunks of them.
func captureTrace(inst *workload.Instance, refs int, lap func()) ([]client.Ref, error) {
	m := inst.NewMachine(workload.CacheConfig(), true)
	col := &collector{refs: make([]client.Ref, 0, refs), m: m}
	m.RT = col
	m.Start()
	for c := 1; c <= setupChunks; c++ {
		col.budget = c*refs/setupChunks - len(col.refs)
		for col.budget > 0 {
			st, err := m.Run(0)
			if err != nil {
				return nil, err
			}
			if st == machine.Halted {
				return col.refs, nil
			}
		}
		lap()
	}
	return col.refs, nil
}
