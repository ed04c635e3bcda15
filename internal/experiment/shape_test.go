package experiment

import (
	"sync"
	"testing"

	"hotprefetch/internal/opt"
	"hotprefetch/internal/workload"
)

// TestPaperShapeSuite is the repository's headline integration test: it runs
// every benchmark through every evaluation mode and asserts the qualitative
// shape of the paper's Figures 11 and 12 and Table 2. The benchmarks are
// independent, so they run as parallel subtests of "run". It takes ~25s of
// CPU; skipped under -short.
func TestPaperShapeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation suite; run without -short")
	}
	allModes := []opt.Mode{
		opt.ModeBase, opt.ModeProfile, opt.ModeHds,
		opt.ModeNoPref, opt.ModeSeqPref, opt.ModeDynPref,
	}
	runs := map[string]*Run{}
	var mu sync.Mutex
	if !t.Run("run", func(t *testing.T) {
		for _, p := range workload.Catalog() {
			t.Run(p.Name, func(t *testing.T) {
				t.Parallel()
				run, err := RunBenchmark(p, allModes)
				if err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				runs[p.Name] = run
				mu.Unlock()
				dyn := run.Results[opt.ModeDynPref]
				avg := dyn.AvgPerCycle()
				t.Logf("%-7s base=%5.1f%% prof=%5.1f%% hds=%5.1f%% | nopref=%5.1f%% seq=%6.1f%% dyn=%6.1f%% | cyc=%2d traced=%6d hds=%3d dfsm=<%d,%d> procs=%2d miss=%.2f",
					p.Name,
					run.Overhead(opt.ModeBase), run.Overhead(opt.ModeProfile), run.Overhead(opt.ModeHds),
					run.Overhead(opt.ModeNoPref), run.Overhead(opt.ModeSeqPref), run.Overhead(opt.ModeDynPref),
					dyn.OptCycles(), avg.TracedRefs, avg.HotStreams, avg.DFSMStates, avg.DFSMTransitions,
					avg.ProcsModified, dyn.Cache.MissRatio())
			})
		}
	}) {
		t.FailNow()
	}

	for name, run := range runs {
		base := run.Overhead(opt.ModeBase)
		prof := run.Overhead(opt.ModeProfile)
		hds := run.Overhead(opt.ModeHds)
		noPref := run.Overhead(opt.ModeNoPref)
		seq := run.Overhead(opt.ModeSeqPref)
		dyn := run.Overhead(opt.ModeDynPref)

		// Figure 11 shape: the check overhead dominates and each pipeline
		// stage adds a little; all bars stay single-digit (paper: 2.5-6%
		// Base, <= +1.6% Prof, <= +1.4% Hds, total 3-7%).
		if base < 1 || base > 8 {
			t.Errorf("%s: Base overhead %.1f%% outside plausible range", name, base)
		}
		if prof < base || prof-base > 2.5 {
			t.Errorf("%s: Prof-Base delta %.1f%% (prof %.1f, base %.1f) out of shape",
				name, prof-base, prof, base)
		}
		if hds < prof || hds-prof > 2 {
			t.Errorf("%s: Hds-Prof delta %.1f%% out of shape", name, hds-prof)
		}

		// Figure 12 shape: matching without prefetching costs a bit more
		// than Hds (paper: no-pref 4-8%), and full dynamic prefetching wins
		// overall (paper: 5-19% improvement).
		if noPref < hds {
			t.Errorf("%s: No-pref (%.1f%%) should cost more than Hds (%.1f%%)", name, noPref, hds)
		}
		if noPref > 12 {
			t.Errorf("%s: No-pref overhead %.1f%% implausibly high", name, noPref)
		}
		if dyn >= -1 {
			t.Errorf("%s: Dyn-pref %.1f%% is not a clear win", name, dyn)
		}
		if dyn < -30 {
			t.Errorf("%s: Dyn-pref %.1f%% implausibly large", name, dyn)
		}
		if dyn >= seq {
			t.Errorf("%s: Dyn-pref (%.1f%%) must beat Seq-pref (%.1f%%)", name, dyn, seq)
		}

		// Seq-pref helps only parser (sequentially allocated streams);
		// every other benchmark degrades (paper §4.3).
		if name == "parser" {
			if seq >= 0 {
				t.Errorf("parser: Seq-pref %.1f%% should be a win", seq)
			}
		} else if seq <= 0 {
			t.Errorf("%s: Seq-pref %.1f%% should degrade on scattered layout", name, seq)
		}

		// Table 2 shape: stream counts 14-41ish, DFSM states near 2n+1,
		// procedures modified 6-13.
		avg := run.Results[opt.ModeDynPref].AvgPerCycle()
		if avg.HotStreams < 10 || avg.HotStreams > 50 {
			t.Errorf("%s: %d hot streams per cycle outside Table 2 shape", name, avg.HotStreams)
		}
		if avg.ProcsModified < 5 || avg.ProcsModified > 14 {
			t.Errorf("%s: %d procs modified outside Table 2 shape", name, avg.ProcsModified)
		}
		if avg.DFSMStates < avg.HotStreams || avg.DFSMStates > 4*avg.HotStreams {
			t.Errorf("%s: %d DFSM states inconsistent with %d streams",
				name, avg.DFSMStates, avg.HotStreams)
		}
		if avg.TracedRefs < 1000 {
			t.Errorf("%s: only %d refs traced per cycle", name, avg.TracedRefs)
		}
	}

	// §1: streams are "long enough (15-20 object references on average) so
	// that they can be prefetched ahead of use in a timely manner". Assert
	// the claim over the suite; individual benchmarks (parser's fused
	// sequential chains) may run longer.
	var lenSum float64
	for _, run := range runs {
		lenSum += run.Results[opt.ModeDynPref].AvgPerCycle().AvgStreamLen()
	}
	if suiteAvg := lenSum / float64(len(runs)); suiteAvg < 12 || suiteAvg > 30 {
		t.Errorf("suite average stream length %.1f outside the paper's 15-20 regime", suiteAvg)
	}

	// vpr is the paper's biggest winner (19%); vortex its smallest (5%).
	// Cycle counts order as in Table 2: twolf most, vortex/parser fewest.
	vpr := runs["vpr"].Overhead(opt.ModeDynPref)
	for name, run := range runs {
		if d := run.Overhead(opt.ModeDynPref); d < vpr-0.5 {
			t.Errorf("vpr should win biggest: %s %.1f%% beats vpr %.1f%%", name, d, vpr)
		}
	}
	vortex := runs["vortex"].Overhead(opt.ModeDynPref)
	for name, run := range runs {
		if d := run.Overhead(opt.ModeDynPref); d > vortex+0.5 {
			t.Errorf("vortex should win smallest: %s %.1f%% below vortex %.1f%%", name, d, vortex)
		}
	}
	twolfCycles := runs["twolf"].Results[opt.ModeDynPref].OptCycles()
	for name, run := range runs {
		if c := run.Results[opt.ModeDynPref].OptCycles(); c > twolfCycles {
			t.Errorf("twolf should complete the most cycles: %s has %d > %d", name, c, twolfCycles)
		}
	}
	for _, name := range []string{"parser", "vortex"} {
		if c := runs[name].Results[opt.ModeDynPref].OptCycles(); c < 1 || c > 6 {
			t.Errorf("%s: %d cycles, want a short run (1-6)", name, c)
		}
	}
}
