package hotprefetch

import (
	"fmt"

	"hotprefetch/internal/experiment"
	"hotprefetch/internal/opt"
	"hotprefetch/internal/workload"
)

// Mode selects how much of the dynamic prefetching pipeline a simulated run
// executes — the bars of the paper's Figures 11 and 12. Its String method
// returns the paper's name for the mode.
type Mode = opt.Mode

const (
	// ModeBase pays only for the dynamic checks (Figure 11 "Base").
	ModeBase = opt.ModeBase
	// ModeProfile adds temporal data reference profiling (Figure 11 "Prof").
	ModeProfile = opt.ModeProfile
	// ModeHds adds hot data stream analysis (Figure 11 "Hds").
	ModeHds = opt.ModeHds
	// ModeNoPref adds DFSM matching without prefetching (Figure 12
	// "No-pref").
	ModeNoPref = opt.ModeNoPref
	// ModeSeqPref prefetches sequentially-following blocks instead of
	// stream addresses (Figure 12 "Seq-pref").
	ModeSeqPref = opt.ModeSeqPref
	// ModeDynPref is the full dynamic prefetching scheme (Figure 12
	// "Dyn-pref").
	ModeDynPref = opt.ModeDynPref
)

// Benchmarks lists the simulated benchmark suite in the paper's order:
// vpr, mcf, twolf, parser, vortex, boxsim (§4.1).
func Benchmarks() []string {
	cat := workload.Catalog()
	names := make([]string, len(cat))
	for i, p := range cat {
		names[i] = p.Name
	}
	return names
}

// Report summarizes one simulated benchmark run.
type Report struct {
	Benchmark string
	Mode      Mode

	// BaselineCycles is the execution time of the original, unoptimized
	// program; ExecCycles is the time under the selected mode.
	BaselineCycles uint64
	ExecCycles     uint64
	// OverheadPct is 100*(Exec/Baseline - 1); negative values are speedups.
	OverheadPct float64

	// OptCycles counts completed profile/optimize/hibernate cycles; the
	// remaining fields are per-cycle averages (paper Table 2).
	OptCycles          int
	TracedRefsPerCycle uint64
	HotStreamsPerCycle int
	DFSMStates         int
	DFSMTransitions    int
	ProcsModified      int

	// Cache behaviour under the selected mode.
	L1MissRatio      float64
	Prefetches       uint64
	UsefulPrefetches uint64
}

// RunBenchmark simulates the named benchmark under the given mode and
// reports the outcome. The run is deterministic: the same name and mode
// always produce the same report.
func RunBenchmark(name string, mode Mode) (Report, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return Report{}, fmt.Errorf("hotprefetch: unknown benchmark %q (have %v)", name, Benchmarks())
	}
	run, err := experiment.RunBenchmark(p, []opt.Mode{mode})
	if err != nil {
		return Report{}, err
	}
	res := run.Results[mode]
	avg := res.AvgPerCycle()
	return Report{
		Benchmark:          name,
		Mode:               mode,
		BaselineCycles:     run.Baseline,
		ExecCycles:         res.ExecCycles,
		OverheadPct:        run.Overhead(mode),
		OptCycles:          res.OptCycles(),
		TracedRefsPerCycle: avg.TracedRefs,
		HotStreamsPerCycle: avg.HotStreams,
		DFSMStates:         avg.DFSMStates,
		DFSMTransitions:    avg.DFSMTransitions,
		ProcsModified:      avg.ProcsModified,
		L1MissRatio:        res.Cache.MissRatio(),
		Prefetches:         res.Cache.Prefetches,
		UsefulPrefetches:   res.Cache.UsefulPrefetches,
	}, nil
}
