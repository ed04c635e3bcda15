// Command prefetchsim simulates one benchmark under one evaluation mode and
// prints a run report: execution time versus the unoptimized baseline,
// optimization cycle activity, and cache behaviour.
//
// Usage:
//
//	prefetchsim -bench vpr -mode dyn-pref
//
// Modes: base, prof, hds, no-pref, seq-pref, dyn-pref (paper Figures 11/12).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"hotprefetch"
	"hotprefetch/internal/experiment"
	"hotprefetch/internal/opt"
	"hotprefetch/internal/workload"
)

var modes = map[string]hotprefetch.Mode{
	"base":     hotprefetch.ModeBase,
	"prof":     hotprefetch.ModeProfile,
	"hds":      hotprefetch.ModeHds,
	"no-pref":  hotprefetch.ModeNoPref,
	"seq-pref": hotprefetch.ModeSeqPref,
	"dyn-pref": hotprefetch.ModeDynPref,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("prefetchsim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command behind a testable seam: args are the command-line
// arguments (without the program name) and all report output goes to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prefetchsim", flag.ContinueOnError)
	bench := fs.String("bench", "mcf", "benchmark to run (vpr, mcf, twolf, parser, vortex, boxsim)")
	modeName := fs.String("mode", "dyn-pref", "evaluation mode (base, prof, hds, no-pref, seq-pref, dyn-pref)")
	events := fs.Bool("events", false, "print the optimizer's decision log while running")
	if err := fs.Parse(args); err != nil {
		return err
	}

	mode, ok := modes[*modeName]
	if !ok {
		return fmt.Errorf("unknown mode %q", *modeName)
	}
	if *events {
		return runWithEvents(out, *bench, mode)
	}
	rep, err := hotprefetch.RunBenchmark(*bench, mode)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "benchmark            %s\n", rep.Benchmark)
	fmt.Fprintf(out, "mode                 %s\n", rep.Mode)
	fmt.Fprintf(out, "baseline cycles      %d\n", rep.BaselineCycles)
	fmt.Fprintf(out, "execution cycles     %d\n", rep.ExecCycles)
	fmt.Fprintf(out, "overhead             %+.2f%% (negative = speedup)\n", rep.OverheadPct)
	fmt.Fprintf(out, "optimization cycles  %d\n", rep.OptCycles)
	if rep.OptCycles > 0 {
		fmt.Fprintf(out, "traced refs/cycle    %d\n", rep.TracedRefsPerCycle)
		fmt.Fprintf(out, "hot streams/cycle    %d\n", rep.HotStreamsPerCycle)
		fmt.Fprintf(out, "DFSM                 <%d states, %d checks>\n", rep.DFSMStates, rep.DFSMTransitions)
		fmt.Fprintf(out, "procs modified/cycle %d\n", rep.ProcsModified)
	}
	fmt.Fprintf(out, "L1 miss ratio        %.3f\n", rep.L1MissRatio)
	fmt.Fprintf(out, "prefetches issued    %d (useful: %d)\n", rep.Prefetches, rep.UsefulPrefetches)
	return nil
}

// runWithEvents reruns the benchmark with the optimizer's decision log
// streaming to out — the observable version of the Figure-1 cycle.
func runWithEvents(out io.Writer, bench string, mode hotprefetch.Mode) error {
	p, ok := workload.ByName(bench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", bench)
	}
	inst := workload.Build(p)
	m := inst.NewMachine(workload.CacheConfig(), true)
	o := opt.New(m, experiment.OptConfig(mode))
	o.SetEventSink(func(e opt.Event) { fmt.Fprintln(out, e) })
	if err := m.RunToCompletion(); err != nil {
		return err
	}
	res := o.Result()
	fmt.Fprintf(out, "done: %d optimization cycles, %d cycles executed\n",
		res.OptCycles(), res.ExecCycles)
	return nil
}
