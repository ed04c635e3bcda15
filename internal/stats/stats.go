// Package stats renders experiment results as the tables and bar rows of
// the paper's evaluation section, for the cmd/figures tool and the benchmark
// harness.
package stats

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"hotprefetch/internal/experiment"
	"hotprefetch/internal/opt"
)

// RenderFigure11 prints the overhead of online profiling and analysis
// (paper Figure 11): the Base, Prof, and Hds bars per benchmark, in percent
// over the unoptimized baseline.
func RenderFigure11(runs []*experiment.Run) string {
	var b strings.Builder
	b.WriteString("Figure 11: Overhead of online profiling and analysis (% of baseline)\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tBase\tProf\tHds")
	for _, r := range runs {
		fmt.Fprintf(w, "%s\t%.1f%%\t%.1f%%\t%.1f%%\n",
			r.Params.Name,
			r.Overhead(opt.ModeBase),
			r.Overhead(opt.ModeProfile),
			r.Overhead(opt.ModeHds))
	}
	w.Flush()
	b.WriteString("(paper: Base 2.5-6%, Prof adds <=1.6%, Hds adds <=1.4%; total 3-7%)\n")
	return b.String()
}

// RenderFigure12 prints the performance impact of dynamic prefetching
// (paper Figure 12): No-pref, Seq-pref, and Dyn-pref, in percent over the
// unoptimized baseline; negative values are speedups.
func RenderFigure12(runs []*experiment.Run) string {
	var b strings.Builder
	b.WriteString("Figure 12: Performance impact of dynamic prefetching (% of baseline, negative = speedup)\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tNo-pref\tSeq-pref\tDyn-pref")
	for _, r := range runs {
		fmt.Fprintf(w, "%s\t%+.1f%%\t%+.1f%%\t%+.1f%%\n",
			r.Params.Name,
			r.Overhead(opt.ModeNoPref),
			r.Overhead(opt.ModeSeqPref),
			r.Overhead(opt.ModeDynPref))
	}
	w.Flush()
	b.WriteString("(paper: No-pref 4-8% overhead; Seq-pref degrades 7-12% except parser ~-5%; Dyn-pref improves 5-19%)\n")
	return b.String()
}

// RenderTable2 prints the detailed dynamic prefetching characterization
// (paper Table 2), per-cycle averages from the Dyn-pref runs.
func RenderTable2(runs []*experiment.Run) string {
	var b strings.Builder
	b.WriteString("Table 2: Detailed dynamic prefetching characterization (per-cycle averages)\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\topt cycles\ttraced refs\thot streams\tDFSM\tprocs modified")
	for _, r := range runs {
		res, ok := r.Results[opt.ModeDynPref]
		if !ok {
			continue
		}
		avg := res.AvgPerCycle()
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t<%d states, %d checks>\t%d\n",
			r.Params.Name, res.OptCycles(), avg.TracedRefs, avg.HotStreams,
			avg.DFSMStates, avg.ChecksInserted, avg.ProcsModified)
	}
	w.Flush()
	b.WriteString("(paper: 3-55 cycles, ~68-88k refs, 14-41 streams, <29-79 states>, 6-12 procs)\n")
	return b.String()
}

// RenderHeadLen prints the §4.3 prefix length ablation for one benchmark.
func RenderHeadLen(name string, results []experiment.HeadLenResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Head length ablation (%s): overall overhead vs baseline (negative = speedup)\n", name)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "headLen\toverhead\tprefix matches/cycle\tprefetches\tuseful")
	for _, r := range results {
		avg := r.Result.AvgPerCycle()
		fmt.Fprintf(w, "%d\t%+.1f%%\t%d\t%d\t%d\n",
			r.HeadLen, r.Overhead, avg.PrefixMatches,
			r.Result.Cache.Prefetches, r.Result.Cache.UsefulPrefetches)
	}
	w.Flush()
	b.WriteString("(paper: headLen=2 best; 1 cheap but inaccurate, 3 costs more without accuracy gains)\n")
	return b.String()
}

// RenderHardware prints the §5.1 hardware prefetcher comparison.
func RenderHardware(results []experiment.HardwareResult) string {
	var b strings.Builder
	b.WriteString("Hardware prefetcher comparison (% of baseline, negative = speedup)\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tstride\tnext-line\tmarkov\tdyn-pref")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%+.1f%%\t%+.1f%%\t%+.1f%%\t%+.1f%%\n",
			r.Name, r.StrideOverhead, r.NextLineOverhead,
			r.MarkovOverhead, r.DynOverhead)
	}
	w.Flush()
	b.WriteString("(paper §4.3: stride prefetching cannot cover hot data stream addresses)\n")
	return b.String()
}

// RenderStaticDyn prints the static-vs-dynamic prefetching comparison (the
// future-work study of the paper's §1).
func RenderStaticDyn(results []experiment.StaticDynResult) string {
	var b strings.Builder
	b.WriteString("Static vs dynamic prefetching (% of baseline, negative = speedup)\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tphases\tstatic (one-shot)\tdynamic (adaptive)")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%d\t%+.1f%%\t%+.1f%%\n", r.Name, r.Phases, r.Static, r.Dynamic)
	}
	w.Flush()
	b.WriteString("(paper §1: dynamic adaptation should win on programs with distinct phase behavior)\n")
	return b.String()
}

// RenderScheduling prints the prefetch scheduling study (the paper's §4.3
// future-work idea), run under a bounded outstanding-fill budget.
func RenderScheduling(name string, results []experiment.ScheduleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Prefetch scheduling (%s, 8 outstanding fills): overhead vs baseline\n", name)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "chunk\toverhead\tdropped\tuseful ratio")
	for _, r := range results {
		label := fmt.Sprintf("%d/check", r.Chunk)
		if r.Chunk == 0 {
			label = "all-at-match"
		}
		fmt.Fprintf(w, "%s\t%+.1f%%\t%d\t%.2f\n", label, r.Overhead, r.Dropped, r.UsefulRatio)
	}
	w.Flush()
	b.WriteString("(paper §4.3: \"more intelligent prefetch scheduling could produce larger benefits\")\n")
	return b.String()
}

// RenderHybrid prints the stride-complement study (paper §4.3).
func RenderHybrid(results []experiment.HybridResult) string {
	var b strings.Builder
	b.WriteString("Stride-complement hybrid (% of baseline, negative = speedup)\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tdyn-pref\tdyn-pref + stride")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%+.1f%%\t%+.1f%%\n", r.Name, r.Dyn, r.Hybrid)
	}
	w.Flush()
	b.WriteString("(paper §4.3: a stride prefetcher \"could complement our scheme\" on non-stream addresses)\n")
	return b.String()
}

// RenderStability prints the cross-input profile stability study (the
// property of paper reference [10] that the intro builds on).
func RenderStability(results []experiment.StabilityResult) string {
	var b strings.Builder
	b.WriteString("Hot data stream stability across inputs\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tstreams A/B\tpc-signature overlap\tconcrete overlap")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%d/%d\t%.2f\t%.2f\n", r.Name, r.StreamsA, r.StreamsB, r.Overlap, r.Concrete)
	}
	w.Flush()
	b.WriteString("(paper §1 / [10]: streams are stable at the code level across inputs; addresses are not)\n")
	return b.String()
}

// RenderMotivation prints the hot-data-stream coverage measurement that
// motivates the paper (§1, citing [8] and [28]).
func RenderMotivation(results []experiment.MotivationResult) string {
	var b strings.Builder
	b.WriteString("Hot data stream coverage of references and misses\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tstreams\tref share\tL1 miss share\tL2 miss share")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%d\t%.0f%%\t%.0f%%\t%.0f%%\n",
			r.Name, r.Streams, 100*r.RefShare, 100*r.L1MissShare, 100*r.L2MissShare)
	}
	w.Flush()
	b.WriteString("(paper §1 / [8,28]: streams account for ~90% of references, >80% of misses;\n")
	b.WriteString(" the synthetic workloads carry deliberate warm traffic, lowering the shares)\n")
	return b.String()
}

// RenderSampling prints the sampled-vs-lossless hot-stream comparison
// (paper §2.2: a low-rate bursty sample suffices to detect hot data
// streams).
func RenderSampling(title string, results []experiment.SamplingResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sampled vs lossless hot-stream detection (%s)\n", title)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\trate\tstreams full/sampled\ttop-10 recall\theat recall\tprecision")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%.2f%%\t%d/%d\t%.2f\t%.2f\t%.2f\n",
			r.Name, 100*r.Rate, r.LosslessStreams, r.SampledStreams,
			r.TopRecall, r.HeatRecall, r.Precision)
	}
	w.Flush()
	b.WriteString("(paper §2.2: bursty sampling at ~0.5% detects the hot streams a lossless\n")
	b.WriteString(" profile finds; matching is by cyclic pc-sequence fragment)\n")
	return b.String()
}

// RenderPrepass prints the two-level ingest front end's differential
// comparison: collapse ratio, grammar overhead, and hot-stream agreement
// against the lossless profile per workload.
func RenderPrepass(results []experiment.PrepassResult) string {
	var b strings.Builder
	b.WriteString("Two-level ingest front end vs lossless profiling\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\trefs\tcollapse\tgrammar lossless/prepass\tstreams\ttop-10 recall\theat recall\tprecision")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%d\t%.1f%%\t%d/%d\t%d/%d\t%.2f\t%.2f\t%.2f\n",
			r.Name, r.TotalRefs, 100*r.CollapseRatio,
			r.LosslessSymbols, r.PrepassSymbols,
			r.LosslessStreams, r.PrepassStreams,
			r.TopRecall, r.HeatRecall, r.Precision)
	}
	w.Flush()
	b.WriteString("(expansion verified byte-identical per workload before analysis; the\n")
	b.WriteString(" collapse column is the fraction of references absorbed before the\n")
	b.WriteString(" digram table)\n")
	return b.String()
}

// RenderReuse prints the reuse-distance validation of the workload
// substrate.
func RenderReuse(results []experiment.ReuseResult) string {
	var b strings.Builder
	b.WriteString("Reuse-distance structure of the demand reference stream (warm accesses)\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\taccesses\t< L1\tL1..L2\t>= L2\tcold")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%d\t%.0f%%\t%.0f%%\t%.0f%%\t%.0f%%\n",
			r.Name, r.Accesses, 100*r.WithinL1, 100*r.WithinL2, 100*r.BeyondL2, 100*r.ColdShare)
	}
	w.Flush()
	b.WriteString("(the paper's effect requires substantial reuse beyond L2: those are the\n")
	b.WriteString(" misses dynamic prefetching hides)\n")
	return b.String()
}

// RenderPredictors prints the predictor zoo's head-to-head comparison: every
// registered predictor trained on the same hot-stream profile and replayed
// over the same evaluation trace per workload.
func RenderPredictors(results []experiment.PredictorResult) string {
	var b strings.Builder
	b.WriteString("Predictor head-to-head (same trace, same hot-stream profile per workload)\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tpredictor\tstreams\tissued\tuseful\taccuracy\tcoverage\ttimeliness\tcmp/ref\tcycles vs base")
	for _, r := range results {
		cmpPerRef := 0.0
		if r.EvalRefs > 0 {
			cmpPerRef = float64(r.Comparisons) / float64(r.EvalRefs)
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f\t%.1f\t%+.1f%%\n",
			r.Workload, r.Predictor, r.TrainStreams, r.Issued, r.Useful,
			r.Accuracy, r.Coverage, r.Timeliness, cmpPerRef, 100*r.CycleDelta)
	}
	w.Flush()
	b.WriteString("(accuracy = useful/issued; coverage = baseline L1 misses eliminated;\n")
	b.WriteString(" timeliness = useful fills complete before the demand touch; cycles\n")
	b.WriteString(" charge 1 per comparison the detection code executes on top of the\n")
	b.WriteString(" memory stalls, 0 where no detection code runs)\n")
	return b.String()
}
