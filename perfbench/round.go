package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"hotprefetch"
)

// sim is a round's simulated outcome. Given the trace, the program's logic
// fixes every field, so each must repeat exactly from round to round.
type sim struct {
	cycles, comparisons uint64
	accesses, l1Misses  uint64
	issued, useful      uint64
	late                uint64
	swaps               uint64
	ttfo                uint64
	deopts, reopts      uint64
}

// roundResult is what one replay of the whole trace through a fresh stack
// measured.
type roundResult struct {
	traced bool

	wall, cpu time.Duration
	refs      int

	publishes, readRounds int
	attempted, failed     int
	readBytes             int

	// Allocation in the loop with the digest wait's probes taken out.
	allocBytes, mallocs float64
	gcCycles            uint64
	gcCPU, totalCPU     float64 // runtime/metrics estimates, seconds

	resident float64 // bytes the stack holds after a forced GC

	digests []float64 // ms from Capture.Flush start to Poll return, per publish
	slices  []float64 // wall seconds of each slice of sliceSteps publishes
	cpuNs   []float64 // process CPU ns of each slice of cpuSliceSteps publishes
	calib   []float64 // calibration samples (ns) framing an untraced round
	sim     sim

	// Peak matcher size after any swap in the round.
	peakStates, peakTransitions int

	snapshots, snapshotBytes int

	// layer holds the per-layer metrics (the span-derived ones only in a
	// traced round); checks lists failed output checks; spans is a traced
	// round's trace.
	layer  map[string]float64
	checks []string
	spans  []span
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime(s []metrics.Sample) (gcCPU, totalCPU float64, gcCycles uint64) {
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// A round is timed in slices of publish steps: refs_per_s and
// cpu_ns_per_ref compose the round from each slice's median over the timed
// rounds (composedTime). CPU slices are longer because the kernel charges a
// running thread's CPU time in scheduler ticks (4 ms at HZ=250), which must
// be small against a slice.
const (
	sliceSteps    = 8
	cpuSliceSteps = 64
)

// runRound replays the trace once through a fresh stack wired to io and
// checks its outputs. digestBuf is the caller's buffer for per-publish
// latencies, sized before the round so the loop allocates nothing of the
// benchmark's own. An untraced round is framed by calibration samples
// from cal, taken while no part of the program runs: before its stack is
// built and after it is closed. A traced round takes none.
func runRound(sp spec, in input, traced bool, digestBuf []float64, io *endpoints, cal *calibrator) (roundResult, error) {
	trace := in.trace
	steps := (len(trace) + publishRefs - 1) / publishRefs
	res := roundResult{traced: traced, refs: len(trace), digests: digestBuf[:0]}
	res.slices = make([]float64, 0, (steps+sliceSteps-1)/sliceSteps)
	res.cpuNs = make([]float64, 0, (steps+cpuSliceSteps-1)/cpuSliceSteps)
	var rec *recorder
	if traced {
		rec = newRecorder(steps*12 + 64)
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	baseHeap := m0.HeapAlloc
	if !traced {
		res.calib = cal.samples(make([]float64, 0, 2*calibSamples))
	}

	st, err := newStack(sp, io)
	if err != nil {
		return res, err
	}

	gc0, tot0, cyc0 := readRuntime(samples)
	runtime.ReadMemStats(&m0)
	probes0 := st.probes
	cpu0 := processCPU()
	t0 := time.Now()
	sliceStart, cpuSliceStart := t0, cpu0
	root := rec.begin("harness.round", -1, -1)
	for i := 0; i < steps; i++ {
		refs := trace[i*publishRefs : min((i+1)*publishRefs, len(trace))]
		pub := rec.begin("harness.publish", i, root)
		if traced {
			rp := rec.begin("harness.replay", i, pub)
			st.replayTraced(refs, rec, i, rp)
			rec.end(rp)
		} else {
			st.replay(refs)
		}
		sa := rec.begin("client.add", i, pub)
		st.cap.AddBatch(refs)
		rec.end(sa)

		d0 := time.Now()
		sf := rec.begin("client.flush", i, pub)
		st.tr.rec, st.tr.id, st.tr.parent = rec, i, sf
		errPub := st.cap.Flush()
		rec.end(sf)
		sh := rec.begin("sharded.flush", i, pub)
		errFlush := st.sp.Flush()
		rec.end(sh)
		sw := rec.begin("sharded.wait", i, pub)
		errWait := st.waitDigest()
		rec.end(sw)
		swaps := st.cm.Swaps()
		sv := rec.begin("supervisor.poll", i, pub)
		errPoll := st.sup.Poll()
		rec.end(sv)
		res.digests = append(res.digests, float64(time.Since(d0))/1e6)

		res.publishes++
		res.attempted += 2 // the publish and the digest ending in Poll
		if errPub != nil {
			res.failed++
		}
		if errFlush != nil || errWait != nil || errPoll != nil {
			res.failed++
		}
		if st.cm.Swaps() != swaps {
			states := st.cm.NumStates()
			if states > 1 && sv >= 0 {
				rec.spans[sv].Name = "supervisor.optimize"
			}
			res.peakStates = max(res.peakStates, states)
			res.peakTransitions = max(res.peakTransitions, st.cm.NumTransitions())
		}
		done := uint64(min((i+1)*publishRefs, len(trace)))
		if res.sim.ttfo == 0 && st.sup.State() == hotprefetch.StateOptimized {
			res.sim.ttfo = done
		}
		if (sp.readEvery > 0 && (i+1)%sp.readEvery == 0) || i == steps-1 {
			st.readRound(rec, i, pub, &res)
		}
		rec.end(pub)
		if (i+1)%sliceSteps == 0 || i == steps-1 {
			now := time.Now()
			res.slices = append(res.slices, now.Sub(sliceStart).Seconds())
			sliceStart = now
		}
		if (i+1)%cpuSliceSteps == 0 || i == steps-1 {
			c := processCPU()
			res.cpuNs = append(res.cpuNs, float64(c-cpuSliceStart))
			cpuSliceStart = c
		}
	}
	rec.end(root)
	res.wall = time.Since(t0)
	res.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	gc1, tot1, cyc1 := readRuntime(samples)
	probes := float64(st.probes - probes0)
	res.allocBytes = float64(m1.TotalAlloc-m0.TotalAlloc) - probes*st.probeBytes
	res.mallocs = float64(m1.Mallocs-m0.Mallocs) - probes*st.probeMallocs
	res.gcCPU, res.totalCPU, res.gcCycles = gc1-gc0, tot1-tot0, cyc1-cyc0

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.resident = float64(m1.HeapAlloc) - float64(baseHeap)

	ms := st.mem.Stats()
	sup := st.sup.Snapshot()
	res.sim.cycles, res.sim.comparisons = st.now, st.comparisons
	res.sim.accesses, res.sim.l1Misses = ms.Accesses(), ms.L1Misses
	res.sim.issued, res.sim.useful, res.sim.late = ms.Prefetches, ms.UsefulPrefetches, ms.LatePrefetches
	res.sim.swaps = st.cm.Swaps()
	res.sim.deopts, res.sim.reopts = sup.Deoptimizations, sup.Reoptimizations
	if res.sim.ttfo == 0 {
		// Never optimized: the whole trace ran unoptimized.
		res.sim.ttfo = uint64(len(trace))
		if sp.mustOptimize {
			res.checks = append(res.checks, "the supervisor never published an optimized matcher")
		}
	}
	res.checks = append(res.checks, st.check(sp, len(trace))...)
	res.layer = st.layerMetrics(in, &res, sup)
	if rec != nil {
		spanMetrics(rec.spans, &res)
		res.spans = rec.spans
	}
	if err := st.close(); err != nil {
		res.checks = append(res.checks, fmt.Sprintf("capture close: %v", err))
	}
	if !traced {
		runtime.GC()
		res.calib = cal.samples(res.calib)
	}
	return res, nil
}

// readRound is one operator read round: GET /stats, /metrics, /hotstreams
// and /snapshot through the service handler.
func (s *stack) readRound(rec *recorder, id, parent int, res *roundResult) {
	rr := rec.begin("harness.reads", id, parent)
	for _, e := range s.reads {
		sp := rec.begin(e.name, id, rr)
		status := e.serve(nil)
		rec.end(sp)
		res.attempted++
		res.readBytes += e.w.buf.Len()
		if status/100 != 2 {
			res.failed++
		}
		if e.name == "persist.snapshot" {
			res.snapshots++
			res.snapshotBytes += e.w.buf.Len()
		}
	}
	res.readRounds++
	rec.end(rr)
}

// check verifies a finished round's outputs: the books of every layer
// balance, and what the read endpoints served last is well formed.
func (s *stack) check(sp spec, refs int) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	cs := s.cap.Stats()
	if cs.Captured != cs.Published || cs.Captured != uint64(refs) {
		fail("client books: captured %d, published %d, trace %d", cs.Captured, cs.Published, refs)
	}

	// The books as the service itself served them on the last GET /stats.
	var served hotprefetch.ServiceStats
	if err := json.Unmarshal(s.reads[0].w.buf.Bytes(), &served); err != nil {
		fail("GET /stats: %v", err)
	} else if len(served.Tenants) != 1 || served.Tenants[0].Key != tenantKey {
		fail("GET /stats: want one tenant %q, got %d", tenantKey, len(served.Tenants))
	} else {
		t := served.Tenants[0]
		p := t.Profile
		if sum := p.Pushed + p.Dropped + p.Sampled + p.BurstShed + p.QuotaShed; t.PublishedRefs != sum {
			fail("tenant books: published %d != pushed+dropped+sampled+burst+quota %d", t.PublishedRefs, sum)
		}
		if t.PublishedRefs != uint64(refs) {
			fail("tenant books: published %d, trace %d", t.PublishedRefs, refs)
		}
		if sum := p.CyclesAnalyzed + p.AnalysesFailed + p.AnalysesSkipped; sum != p.Resets {
			fail("analysis books: analyzed+failed+skipped %d != resets %d", sum, p.Resets)
		}
	}

	var hot struct {
		Tenant  string `json:"tenant"`
		Streams []struct {
			Refs []hotprefetch.Ref `json:"refs"`
			Heat uint64            `json:"heat"`
		} `json:"streams"`
	}
	if err := json.Unmarshal(s.reads[2].w.buf.Bytes(), &hot); err != nil {
		fail("GET /hotstreams: %v", err)
	} else if sp.mustOptimize && len(hot.Streams) == 0 {
		fail("GET /hotstreams: no hot streams")
	}

	if !bytes.HasPrefix(s.reads[1].w.buf.Bytes(), []byte("# HELP")) {
		fail("GET /metrics: not a Prometheus exposition")
	}

	restored := hotprefetch.NewShardedProfile(1)
	info, err := restored.RestoreSnapshot(bytes.NewReader(s.reads[3].w.buf.Bytes()))
	restored.Close()
	if err != nil {
		fail("GET /snapshot: restore: %v", err)
	} else if info.Streams != len(s.sp.BankedStreams(0)) {
		fail("GET /snapshot: restored %d streams, profile banks %d", info.Streams, len(s.sp.BankedStreams(0)))
	}
	return bad
}

// layerMetrics gathers the per-layer counters a round leaves in the public
// Stats of each layer. Span-derived timings are added by spanMetrics.
func (s *stack) layerMetrics(in input, res *roundResult, sup hotprefetch.SupervisorStats) map[string]float64 {
	refs := float64(res.refs)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	sim := res.sim
	cs := s.cap.Stats()
	st := s.sp.Stats()
	issued, hits := s.cm.AccuracyCounters()
	var published uint64
	if ss := s.svc.Stats(); len(ss.Tenants) == 1 {
		published = ss.Tenants[0].PublishedRefs
	}
	var peak int
	var banked int
	for _, sh := range st.Shards {
		peak = max(peak, sh.PeakGrammarSize)
		banked += sh.Retained
	}
	m := map[string]float64{
		"memsim.l1_miss_ratio":       ratio(float64(sim.l1Misses), float64(sim.accesses)),
		"memsim.prefetches":          float64(sim.issued),
		"memsim.accuracy":            ratio(float64(sim.useful), float64(sim.issued)),
		"memsim.coverage":            1 - ratio(float64(sim.l1Misses), float64(in.base.L1Misses)),
		"memsim.timely_ratio":        ratio(float64(sim.useful)-float64(sim.late), float64(sim.issued)),
		"memsim.detect_cycles_share": ratio(float64(sim.comparisons), float64(sim.cycles)),

		"matcher.comparisons_per_ref": float64(sim.comparisons) / refs,
		"matcher.hit_ratio":           ratio(float64(hits), float64(issued)),
		"matcher.swaps":               float64(sim.swaps),
		"matcher.dfsm_states":         float64(res.peakStates),
		"matcher.dfsm_transitions":    float64(res.peakTransitions),

		"client.wire_bytes_per_ref": float64(s.tr.wireBytes) / refs,
		"client.dropped":            float64(cs.Dropped),
		"client.retries":            float64(cs.Retries),
		"client.errors":             float64(cs.Errors),

		"service.ingest_non2xx": float64(s.tr.non2xx),
		"service.read_bytes":    ratio(float64(res.readBytes), float64(res.readRounds)),

		"sharded.burst_shed_ratio":     ratio(float64(st.BurstShed), float64(published)),
		"sharded.collapse_ratio":       ratio(float64(st.Collapsed), float64(st.Consumed)),
		"sharded.resets":               float64(st.Resets),
		"sharded.cycles_analyzed":      float64(st.CyclesAnalyzed),
		"sharded.analyses_failed":      float64(st.AnalysesFailed),
		"sharded.analyses_skipped":     float64(st.AnalysesSkipped),
		"sharded.compress_ms":          float64(st.CompressLatency.Sum) / 1e6,
		"sharded.analysis_ms":          float64(st.AnalysisLatency.Sum) / 1e6,
		"sharded.max_cycle_stall_ms":   float64(st.MaxCycleStall) / 1e6,
		"sharded.peak_grammar_symbols": float64(peak),
		"sharded.banked_streams":       float64(banked),

		"supervisor.reoptimizations": float64(sup.Reoptimizations),
		"supervisor.deoptimizations": float64(sup.Deoptimizations),
		"supervisor.poll_errors":     float64(sup.PollErrors),
		"supervisor.swaps_per_mref":  float64(sim.swaps) * 1e6 / refs,

		"runtime.gc_cycles":       float64(res.gcCycles),
		"runtime.gc_cpu_share":    ratio(res.gcCPU, res.totalCPU),
		"runtime.mallocs_per_ref": res.mallocs / refs,
	}
	return m
}

// spanMetrics derives the per-layer timings of a traced round from its
// spans: each layer's self time, per-call means, and the self-time check
// (layerSelfError).
func spanMetrics(spans []span, res *roundResult) {
	self := selfTimes(spans)
	byLayer := map[string]int64{}
	selfByName := map[string]int64{}
	durByName := map[string]int64{}
	calls := map[string]int{}
	for i, s := range spans {
		byLayer[s.layer()] += self[i]
		selfByName[s.Name] += self[i]
		durByName[s.Name] += s.End - s.Start
		calls[s.Name]++
	}
	refs := float64(res.refs)
	perCallMs := func(ns int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n) / 1e6
	}
	m := res.layer
	m["memsim.ns_per_ref"] = float64(byLayer["memsim"]) / refs
	m["matcher.observe_ns_per_ref"] = float64(byLayer["matcher"]) / refs
	m["client.flush_ms"] = perCallMs(selfByName["client.flush"], calls["client.flush"])
	m["service.ingest_ms"] = perCallMs(durByName["service.ingest"], calls["service.ingest"])
	m["service.stats_ms"] = perCallMs(durByName["service.stats"], calls["service.stats"])
	m["service.metrics_ms"] = perCallMs(durByName["service.metrics"], calls["service.metrics"])
	m["service.hotstreams_ms"] = perCallMs(durByName["service.hotstreams"], calls["service.hotstreams"])
	m["persist.snapshot_ms"] = perCallMs(durByName["persist.snapshot"], calls["persist.snapshot"])
	if res.snapshots > 0 {
		m["persist.snapshot_bytes"] = float64(res.snapshotBytes) / float64(res.snapshots)
	}
	m["sharded.digest_wait_ms"] = perCallMs(durByName["sharded.flush"]+durByName["sharded.wait"], res.publishes)
	polls := calls["supervisor.poll"] + calls["supervisor.optimize"]
	m["supervisor.poll_ms"] = perCallMs(durByName["supervisor.poll"]+durByName["supervisor.optimize"], polls)
	m["supervisor.optimize_ms"] = perCallMs(durByName["supervisor.optimize"], calls["supervisor.optimize"])
	for _, l := range []string{"client", "service", "sharded", "supervisor", "persist", "harness"} {
		m[l+".self_ns_per_ref"] = float64(byLayer[l]) / refs
	}
	m["trace.self_sum_error"] = layerSelfError(spans, int64(res.wall))
}
