// Package experiment runs the paper's evaluation (§4): the profiling and
// analysis overhead study of Figure 11, the prefetching performance study of
// Figure 12, the detailed characterization of Table 2, and the §4.3 head
// length ablation, over the six workload benchmarks.
//
// Scaling note (see DESIGN.md and EXPERIMENTS.md): the paper profiles at a
// 0.5% sampling rate and is awake 1 second of every 50 on a 550MHz machine —
// billions of cycles per optimization cycle, which a cycle-accounting
// simulator cannot replay verbatim. The harness keeps the framework's
// structure (burst length 20 checks, hibernation-dominated duty cycle,
// deterministic counters) and raises the rates — 5% sampling, awake 25 of
// 125 burst-periods — so full profile/optimize/hibernate cycles complete in
// millions of simulated cycles. The paper's own §4.1 counter settings remain
// the library defaults (burst.PaperConfig, opt.DefaultConfig).
package experiment

import (
	"fmt"

	"hotprefetch/internal/burst"
	"hotprefetch/internal/hotds"
	"hotprefetch/internal/memsim"
	"hotprefetch/internal/opt"
	"hotprefetch/internal/workload"
)

// BurstConfig returns the scaled bursty-tracing settings used for all
// workload experiments.
func BurstConfig() burst.Config {
	return burst.Config{
		NCheck0:     380,
		NInstr0:     20,
		NAwake0:     25,
		NHibernate0: 100,
		// One dynamic check costs ~25 cycles all-in: the counter update,
		// compare, and branch, plus the amortized instruction-cache cost of
		// code duplication. Calibrated so the Base bars land in the paper's
		// 2.5-6% range (Figure 11) on these workloads.
		CheckCost: 25,
	}
}

// OptConfig assembles the optimizer configuration for one evaluation mode.
func OptConfig(mode opt.Mode) opt.Config {
	cfg := opt.Config{
		Mode:     mode,
		Burst:    BurstConfig(),
		Analysis: hotds.DefaultConfig(),
		HeadLen:  2,
		Costs:    opt.DefaultCostModel(),
	}
	if mode == opt.ModeBase {
		cfg = opt.BaseVariant(cfg)
	}
	return cfg
}

// Run holds one benchmark's results across the requested modes.
type Run struct {
	Params   workload.Params
	Baseline uint64 // unoptimized execution time (cycles)
	Results  map[opt.Mode]opt.Result
}

// Overhead returns a mode's execution time overhead relative to the
// unoptimized baseline, in percent; negative values are speedups (the Y
// axis of Figures 11 and 12).
func (r *Run) Overhead(mode opt.Mode) float64 {
	res, ok := r.Results[mode]
	if !ok || r.Baseline == 0 {
		return 0
	}
	return 100 * (float64(res.ExecCycles)/float64(r.Baseline) - 1)
}

// RunBenchmark executes one benchmark: the unoptimized baseline plus one run
// per requested mode, all over identical initial heaps.
func RunBenchmark(p workload.Params, modes []opt.Mode) (*Run, error) {
	return runBenchmark(p, modes, OptConfig, workload.CacheConfig())
}

// runBenchmark lets ablations substitute their own per-mode configuration
// and cache geometry.
func runBenchmark(p workload.Params, modes []opt.Mode, cfgFor func(opt.Mode) opt.Config, cache memsim.Config) (*Run, error) {
	inst := workload.Build(p)

	base, err := opt.RunBaseline(inst.NewMachine(cache, false))
	if err != nil {
		return nil, fmt.Errorf("%s baseline: %w", p.Name, err)
	}
	run := &Run{Params: p, Baseline: base, Results: make(map[opt.Mode]opt.Result)}
	for _, mode := range modes {
		m := inst.NewMachine(cache, true)
		res, err := opt.Run(m, cfgFor(mode))
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", p.Name, mode, err)
		}
		run.Results[mode] = res
	}
	return run, nil
}

// Figure11Modes are the bars of paper Figure 11.
var Figure11Modes = []opt.Mode{opt.ModeBase, opt.ModeProfile, opt.ModeHds}

// Figure12Modes are the bars of paper Figure 12.
var Figure12Modes = []opt.Mode{opt.ModeNoPref, opt.ModeSeqPref, opt.ModeDynPref}

// Figure11 runs the online profiling and analysis overhead study on the
// given benchmarks (all of workload.Catalog if nil).
func Figure11(params []workload.Params) ([]*Run, error) {
	return runAll(params, Figure11Modes)
}

// Figure12 runs the dynamic prefetching performance study.
func Figure12(params []workload.Params) ([]*Run, error) {
	return runAll(params, Figure12Modes)
}

// Table2 runs the full dynamic prefetching configuration and returns the
// per-benchmark characterization (the paper's Table 2 draws its numbers
// from the Dyn-pref runs).
func Table2(params []workload.Params) ([]*Run, error) {
	return runAll(params, []opt.Mode{opt.ModeDynPref})
}

func runAll(params []workload.Params, modes []opt.Mode) ([]*Run, error) {
	if params == nil {
		params = workload.Catalog()
	}
	runs := make([]*Run, 0, len(params))
	for _, p := range params {
		r, err := RunBenchmark(p, modes)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// HeadLenResult is one cell of the §4.3 head length ablation.
type HeadLenResult struct {
	HeadLen  int
	Overhead float64 // percent vs baseline (negative = speedup)
	Result   opt.Result
}

// AblationHeadLen reruns Dyn-pref with prefix-match lengths 1, 2, and 3 on
// one benchmark. The paper reports that 1 lowers matching overhead but hurts
// accuracy and 3 adds overhead without accuracy gains, making 2 the choice
// (§4.3).
func AblationHeadLen(p workload.Params, headLens []int) ([]HeadLenResult, error) {
	if headLens == nil {
		headLens = []int{1, 2, 3}
	}
	out := make([]HeadLenResult, 0, len(headLens))
	for _, hl := range headLens {
		hl := hl
		run, err := runBenchmark(p, []opt.Mode{opt.ModeDynPref}, func(m opt.Mode) opt.Config {
			cfg := OptConfig(m)
			cfg.HeadLen = hl
			return cfg
		}, workload.CacheConfig())
		if err != nil {
			return nil, err
		}
		out = append(out, HeadLenResult{
			HeadLen:  hl,
			Overhead: run.Overhead(opt.ModeDynPref),
			Result:   run.Results[opt.ModeDynPref],
		})
	}
	return out, nil
}
