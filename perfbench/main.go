// Command perfbench is hotprefetch's end-to-end benchmark. It plays a
// generated program's reference trace against the production stack in one
// process — client capture, the Service handler, the tenant's ShardedProfile,
// the Supervisor and its ConcurrentMatcher — with internal/memsim as the
// program's memory hierarchy, checks the outputs, and prints every metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it with run.sh from the repository root:
//
//	bash perfbench/run.sh --workload vpr-live --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans at every
// layer boundary and reports the per-layer metrics instead. README.md
// defines every metric and why each workload is in the set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many set-ups an untraced run times; setup_s is composed
// from each set-up piece's median over them (composedTime).
const setupRuns = 7

// selfSumTolerance is how far the traced round's per-layer self times may
// sum from its wall time, as a share of the wall time (layerSelfError).
const selfSumTolerance = 0.01

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]figure `json:"metrics"`
}

type figure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's program is generated from")
	seconds := fs.Int("seconds", 30, "seconds of timed rounds to measure")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its last round's spans to (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	traced := *traceFlag == 1
	var err error
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d go=%s\n",
		sp.name, *seed, *seconds, *traceFlag, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	// A traced run reports no bounded timing, so it does not calibrate.
	var cal *calibrator
	if !traced {
		if cal, err = newCalibrator(); err != nil {
			fmt.Fprintf(stderr, "perfbench: calibration table: %v\n", err)
			return 1
		}
	}
	var setups setupSamples
	in, err := setups.take(sp, *seed, cal)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: setup: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "setup: %d refs, baseline %d cycles, %d L1 misses\n", len(in.trace), in.baseCycles, in.base.L1Misses)

	rounds, err := measure(sp, in, *seed, time.Duration(*seconds)*time.Second, traced, &setups, cal, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	checks := setups.checks
	res := result{Metrics: map[string]figure{}}
	first := rounds[0].sim
	for i, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, c := range r.checks {
			checks = append(checks, fmt.Sprintf("round %d: %s", i, c))
		}
		if r.sim != first {
			checks = append(checks, fmt.Sprintf("round %d: simulated counts %+v differ from round 0's %+v", i, r.sim, first))
		}
	}
	timed := rounds[1:]
	if traced {
		checks = append(checks, reportLayers(res.Metrics, timed, stdout, *spansDir, sp.name, *seed)...)
	} else {
		reportEndToEnd(res.Metrics, in, timed, setups, stdout)
	}
	for name, f := range res.Metrics {
		if math.IsNaN(f.Value) || math.IsInf(f.Value, 0) {
			checks = append(checks, fmt.Sprintf("metric %s is %v", name, f.Value))
			res.Metrics[name] = figure{Value: -1, Unit: f.Unit}
		}
	}
	for _, c := range checks {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", c)
	}
	res.Correct = len(checks) == 0
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

// setupSamples collects set-up timings. A run sets up once before the
// rounds and again between untraced timed rounds, spread over the run, so
// setup_s sees the same stretch of host load as the rounds do.
type setupSamples struct {
	pieces [][]float64 // seconds per piece of set-up work, per sample
	wall   []float64   // total seconds per sample
	calib  [][]float64 // calibration samples framing each set-up
	checks []string
}

// take runs one set-up, framed by calibration samples when cal is not nil,
// and records the wall time of each of its pieces.
func (s *setupSamples) take(sp spec, seed int64, cal *calibrator) (input, error) {
	runtime.GC()
	calib := cal.samples(nil)
	in, pieces, err := prepare(sp, seed)
	if err != nil {
		return in, err
	}
	runtime.GC()
	s.calib = append(s.calib, cal.samples(calib))
	secs := make([]float64, len(pieces))
	var total float64
	for i, p := range pieces {
		secs[i] = p.Seconds()
		total += secs[i]
	}
	s.pieces = append(s.pieces, secs)
	s.wall = append(s.wall, total)
	return in, nil
}

// measure runs a warm-up round and then timed rounds until their wall time
// reaches d. An untraced run needs at least two timed rounds and takes up
// to setupRuns set-up samples in all, evenly spread; a traced run
// alternates traced and untraced rounds, at least two of each, so the
// difference between them is the tracing overhead.
func measure(sp spec, in input, seed int64, d time.Duration, traced bool, setups *setupSamples, cal *calibrator, stdout io.Writer) ([]roundResult, error) {
	steps := (len(in.trace) + publishRefs - 1) / publishRefs
	buf := make([]float64, 0, steps)
	io := newEndpoints()
	var rounds []roundResult
	var elapsed time.Duration
	for i := 0; ; i++ {
		tracedRound := traced && i%2 == 1
		start := time.Now()
		r, err := runRound(sp, in, tracedRound, buf, io, cal)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		r.digests = append([]float64(nil), r.digests...)
		rounds = append(rounds, r)
		fmt.Fprintf(stdout, "round %d traced=%t: %.3fs wall, %.0f refs/s, %.1f cpu ns/ref, %.1f B/ref, digest p50 %.3fms, calibration %.1fus, swaps %d, ttfo %d, cycles %d\n",
			i, tracedRound, r.wall.Seconds(), float64(r.refs)/r.wall.Seconds(), float64(r.cpu)/float64(r.refs),
			r.allocBytes/float64(r.refs), median(r.digests), median(r.calib)/1e3, r.sim.swaps, r.sim.ttfo, r.sim.cycles)
		if i == 0 {
			continue // warm-up
		}
		elapsed += time.Since(start)
		n := len(rounds) - 1
		if elapsed >= d && n >= 2 && (!traced || n >= 4) {
			return rounds, nil
		}
		if !traced && len(setups.wall) < setupRuns && elapsed >= time.Duration(len(setups.wall))*d/setupRuns {
			next, err := setups.take(sp, seed, cal)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			if next.baseCycles != in.baseCycles {
				setups.checks = append(setups.checks, "set-up is not deterministic: baseline cycles differ between set-ups")
			}
		}
	}
}

// reportEndToEnd fills the end-to-end metrics. The timings are composed
// from per-piece medians (the digest latency is a median over all
// publishes) after each round and each set-up is divided by the host
// factor of the calibration samples that frame it. The allocation figures
// are medians over the timed rounds, the simulated outcomes exact counts.
func reportEndToEnd(m map[string]figure, in input, timed []roundResult, setups setupSamples, stdout io.Writer) {
	var rate, cpu, alloc, resident, digests, factors []float64
	var slices, cpuSlices, rawSlices, rawCPUSlices, setupPieces [][]float64
	var rawDigests, calib []float64
	fail := 0.0
	for _, r := range timed {
		f := hostFactor(r.calib)
		factors = append(factors, f)
		calib = append(calib, r.calib...)
		slices = append(slices, scaled(r.slices, f))
		cpuSlices = append(cpuSlices, scaled(r.cpuNs, f))
		digests = append(digests, scaled(r.digests, f)...)
		rawSlices = append(rawSlices, r.slices)
		rawCPUSlices = append(rawCPUSlices, r.cpuNs)
		rawDigests = append(rawDigests, r.digests...)
		refs := float64(r.refs)
		rate = append(rate, refs*f/r.wall.Seconds())
		cpu = append(cpu, float64(r.cpu)/refs/f)
		alloc = append(alloc, r.allocBytes/refs)
		resident = append(resident, r.resident/(1<<20))
		// Add-one smoothing keeps the ratio above zero, as every reported
		// metric must be; with no failures it reads 1/(operations+1).
		fail = max(fail, float64(r.failed+1)/float64(r.attempted+1))
	}
	var setupTotals []float64
	for i, p := range setups.pieces {
		f := hostFactor(setups.calib[i])
		factors = append(factors, f)
		calib = append(calib, setups.calib[i]...)
		setupPieces = append(setupPieces, scaled(p, f))
		setupTotals = append(setupTotals, setups.wall[i]/f)
	}
	s := timed[0].sim
	refs := float64(timed[0].refs)
	values := map[string]float64{
		"refs_per_s":          refs / composedTime(slices),
		"cpu_ns_per_ref":      composedTime(cpuSlices) / refs,
		"digest_p50_ms":       median(digests),
		"cycles_ratio":        float64(s.cycles) / float64(in.baseCycles),
		"ttfo_refs":           float64(s.ttfo),
		"alloc_bytes_per_ref": median(alloc),
		"resident_heap_mib":   median(resident),
		"setup_s":             composedTime(setupPieces),
		"fail_ratio":          fail,
	}
	spread := map[string][]float64{
		"refs_per_s": rate, "cpu_ns_per_ref": cpu, "alloc_bytes_per_ref": alloc,
		"resident_heap_mib": resident, "setup_s": setupTotals,
	}
	fmt.Fprintf(stdout, "timed rounds: %d; digest samples: %d; swaps %d, deopts %d, reopts %d\n",
		len(timed), len(digests), s.swaps, s.deopts, s.reopts)
	fmt.Fprintf(stdout, "as measured: set-ups %s s, composed %.6g s; composed %.6g refs/s, %.6g cpu ns/ref; digest p50 %.6g ms\n",
		formatList(setups.wall, "%.3f"), composedTime(setups.pieces), refs/composedTime(rawSlices), composedTime(rawCPUSlices)/refs, median(rawDigests))
	fmt.Fprintf(stdout, "host factor %.4f (median of rounds and set-ups; quartiles %.4f-%.4f): calibration median %.2fus over %d samples, reference %.0fus\n",
		median(factors), percentile(factors, 0.25), percentile(factors, 0.75), median(calib)/1e3, len(calib), calibRefNs/1e3)
	for _, mt := range endToEnd {
		v := values[mt.name]
		m[mt.name] = figure{Value: v, Unit: mt.unit}
		line := fmt.Sprintf("%-20s %14.6g %s", mt.name, v, mt.unit)
		if xs := spread[mt.name]; len(xs) > 1 {
			q1, _, q3 := quartiles(xs)
			line += fmt.Sprintf("  (rounds q1 %.6g, q3 %.6g, rel IQR %.3f)", q1, q3, relIQR(xs))
		}
		fmt.Fprintln(stdout, line)
	}
}

// scaled returns a copy of xs divided by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / f
	}
	return out
}

// reportLayers fills the per-layer metrics from the traced rounds (medians),
// prints the self-time table, writes the last traced round's spans, and
// returns the traced run's failed checks.
func reportLayers(m map[string]figure, timed []roundResult, stdout io.Writer, spansDir, workload string, seed int64) []string {
	var checks []string
	var tracedWall, plainWall, digests []float64
	byName := map[string][]float64{}
	var last roundResult
	for _, r := range timed {
		if !r.traced {
			plainWall = append(plainWall, r.wall.Seconds())
			digests = append(digests, r.digests...)
			continue
		}
		tracedWall = append(tracedWall, r.wall.Seconds())
		for k, v := range r.layer {
			byName[k] = append(byName[k], v)
		}
		if e := r.layer["trace.self_sum_error"]; e > selfSumTolerance {
			checks = append(checks, fmt.Sprintf("traced per-layer self times sum off the loop wall time by %.4f (tolerance %.2f)", e, selfSumTolerance))
		}
		last = r
	}
	byName["trace.overhead_ratio"] = []float64{median(tracedWall)/median(plainWall) - 1}
	byName["trace.self_sum_error"] = []float64{slices.Max(byName["trace.self_sum_error"])}
	byName["trace.digest_p99_ms"] = []float64{percentile(digests, 0.99)}
	byName["trace.digest_samples"] = []float64{float64(len(digests))}
	for _, mt := range perLayer {
		xs, ok := byName[mt.name]
		if !ok {
			checks = append(checks, "per-layer metric "+mt.name+" was not measured")
			continue
		}
		m[mt.name] = figure{Value: median(xs), Unit: mt.unit}
	}

	fmt.Fprintf(stdout, "traced rounds: %d, untraced rounds: %d; tracing overhead %.1f%%; digest p99 %.3fms over %d samples (%d beyond it)\n",
		len(tracedWall), len(plainWall), 100*m["trace.overhead_ratio"].Value,
		m["trace.digest_p99_ms"].Value, len(digests), len(digests)/100)
	self := selfTimes(last.spans)
	byLayer := map[string]int64{}
	var layersTotal int64
	for i, s := range last.spans {
		byLayer[s.layer()] += self[i]
		if s.layer() != "harness" {
			layersTotal += self[i]
		}
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	fmt.Fprintf(stdout, "self time by layer, last traced round (%.3fs wall; the layers' self times sum to %.3fs, within %.0f%% of the wall time or the run fails):\n",
		last.wall.Seconds(), float64(layersTotal)/1e9, 100*selfSumTolerance)
	for _, l := range layers {
		fmt.Fprintf(stdout, "  %-10s %9.3fs %6.1f%% %9.1f ns/ref\n", l, float64(byLayer[l])/1e9,
			100*float64(byLayer[l])/float64(last.wall), float64(byLayer[l])/float64(last.refs))
	}
	for _, mt := range perLayer {
		fmt.Fprintf(stdout, "%-30s %14.6g %s\n", mt.name, m[mt.name].Value, mt.unit)
	}
	if spansDir != "" {
		path, err := writeSpans(spansDir, workload, seed, last.spans)
		if err != nil {
			checks = append(checks, fmt.Sprintf("writing spans: %v", err))
		} else {
			fmt.Fprintf(stdout, "spans: %d written to %s\n", len(last.spans), path)
		}
	}
	return checks
}

func formatList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
