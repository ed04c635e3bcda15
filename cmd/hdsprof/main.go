// Command hdsprof profiles a benchmark's data reference stream offline and
// prints its hot data streams: the output of the paper's §2 pipeline
// (bursty-tracing sample -> Sequitur -> fast hot data stream analysis)
// without the optimization back end.
//
// Usage:
//
//	hdsprof -bench mcf [-refs 200000] [-precise] [-top 20]
//	hdsprof -bench mcf -save trace.hds     # capture the trace to a file
//	hdsprof -load trace.hds                # analyze a previously saved trace
//	hdsprof -bench mcf -service -membudget 4096 -policy drop
//	                                       # profile through the sharded
//	                                       # service and print its stats JSON
//	hdsprof -bench mcf -service -membudget 4096 -workers 2
//	                                       # pipeline grammar cycles through a
//	                                       # background analysis pool
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"hotprefetch"
	"hotprefetch/internal/dfsm"
	"hotprefetch/internal/machine"
	"hotprefetch/internal/tracefile"
	"hotprefetch/internal/workload"
)

// collector records every executed data reference until its budget runs out
// or a shutdown signal lands.
type collector struct {
	add     func(hotprefetch.Ref) // profiling sink (plain Profile or service shard)
	raw     []hotprefetch.Ref     // kept when the trace will be saved
	keepRaw bool
	budget  int
	machine *machine.Machine
	stop    *atomic.Bool // SIGINT/SIGTERM: yield the machine, stop producing
}

func (c *collector) Check(pc int) (machine.Version, uint64) {
	return machine.VersionInstrumented, 0
}

func (c *collector) TraceRef(pc int, addr machine.Word, isWrite bool) uint64 {
	r := hotprefetch.Ref{PC: pc, Addr: addr}
	c.add(r)
	if c.keepRaw {
		c.raw = append(c.raw, r)
	}
	c.budget--
	if c.budget <= 0 || c.stop.Load() {
		c.machine.Yield()
	}
	return 0
}

func (c *collector) Match(pc int, addr machine.Word) ([]machine.Word, uint64) {
	return nil, 0
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hdsprof: ")

	bench := flag.String("bench", "mcf", "benchmark to profile")
	refs := flag.Int("refs", 200000, "number of data references to trace")
	precise := flag.Bool("precise", false, "use the exact (Larus-style) detector instead of the fast approximation")
	top := flag.Int("top", 20, "streams to print")
	save := flag.String("save", "", "write the captured trace to this file")
	load := flag.String("load", "", "analyze a saved trace instead of profiling a benchmark")
	dot := flag.String("dot", "", "write the prefix-matching DFSM for the streams as Graphviz DOT")
	headLen := flag.Int("headlen", 2, "prefix length for the -dot DFSM")
	service := flag.Bool("service", false, "profile through the sharded profiling service and print its stats JSON")
	policy := flag.String("policy", "block", "service ingestion policy: block, drop, or sample")
	sampleN := flag.Int("samplen", 16, "service Sample policy: accept 1 in N under pressure")
	memBudget := flag.Int("membudget", 0, "service per-shard grammar symbol budget (0 = unbounded)")
	workers := flag.Int("workers", 0, "service background analysis workers for pipelined grammar cycles (0 = inline)")
	burstFlag := flag.String("burst", "off", "service bursty-sampling front end: off, paper, or nCheck:nInstr:nAwake:nHibernate")
	metrics := flag.String("metrics", "", "serve Prometheus metrics (/metrics) and expvar (/debug/vars) on this address during a -service run, e.g. :9090")
	predictor := flag.String("predictor", "", "train this predictor on the detected streams and replay the captured trace through it; a registry name or \"all\"")
	flag.Parse()

	var replayNames []string
	if *predictor != "" {
		if *predictor == "all" {
			replayNames = hotprefetch.PredictorNames()
		} else {
			replayNames = []string{*predictor}
		}
		for _, n := range replayNames {
			if _, err := hotprefetch.NewPredictor(n, nil, *headLen); err != nil {
				log.Fatal(err)
			}
		}
	}

	// The profiling sink: a plain Profile, or — in service mode — one shard
	// of the concurrent profiling service, exercising its ingestion policy,
	// grammar memory budget, and stats plumbing on the same trace.
	var (
		profile *hotprefetch.Profile
		svc     *hotprefetch.ShardedProfile
	)
	// The raw trace is kept when it will be saved or replayed through a
	// predictor after analysis.
	col := &collector{budget: *refs, keepRaw: *save != "" || *predictor != "", stop: new(atomic.Bool)}

	// Graceful shutdown: the first SIGINT/SIGTERM stops the producer side
	// and lets the run fall through to the normal flush/analyze/report path,
	// so an interrupted profile still prints complete, drained stats. A
	// second signal gets the default fatal behavior.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		log.Printf("received %v: stopping trace, flushing and reporting (send again to kill)", s)
		col.stop.Store(true)
		signal.Stop(sigc)
	}()
	if *service {
		if *precise {
			log.Fatal("-precise is not supported with -service (the service merges per-cycle fast analyses)")
		}
		pol, err := hotprefetch.ParseIngestPolicy(*policy)
		if err != nil {
			log.Fatal(err)
		}
		burstCfg, err := hotprefetch.ParseBurstConfig(*burstFlag)
		if err != nil {
			log.Fatal(err)
		}
		svc, err = hotprefetch.NewShardedProfileConfig(hotprefetch.ShardedConfig{
			Shards:            1,
			Policy:            pol,
			SampleInterval:    *sampleN,
			MaxGrammarSymbols: *memBudget,
			AnalysisWorkers:   *workers,
			Burst:             burstCfg,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer svc.Close()
		if *metrics != "" {
			ln, err := net.Listen("tcp", *metrics)
			if err != nil {
				log.Fatal(err)
			}
			mux := http.NewServeMux()
			mux.Handle("/metrics", svc.MetricsHandler())
			expvar.Publish("hotprefetch", svc.ExpvarVar())
			mux.Handle("/debug/vars", expvar.Handler())
			srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
			go func() {
				if err := srv.Serve(ln); err != nil &&
					err != http.ErrServerClosed && !errors.Is(err, net.ErrClosed) {
					log.Printf("metrics server: %v", err)
				}
			}()
			// Registered after `defer svc.Close()`, so on the drain path the
			// server shuts down first: an in-flight scrape finishes against a
			// live profile instead of being cut off mid-response by a bare
			// listener close, and only then does the profile close.
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					log.Printf("metrics server shutdown: %v", err)
				}
			}()
			log.Printf("serving metrics on http://%s/metrics", ln.Addr())
		}
		shard := svc.Shard(0)
		col.add = func(r hotprefetch.Ref) {
			if err := shard.Add(r); err != nil {
				log.Fatal(err)
			}
		}
	} else if *metrics != "" {
		log.Fatal("-metrics requires -service (metrics are the sharded service's)")
	} else {
		profile = hotprefetch.NewProfile()
		col.add = profile.Add
	}
	name := *bench
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			log.Fatal(err)
		}
		trace, err := tracefile.Read(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range trace {
			if col.stop.Load() {
				break
			}
			col.add(r)
			if col.keepRaw {
				col.raw = append(col.raw, r)
			}
		}
		name = *load
	} else {
		p, ok := workload.ByName(*bench)
		if !ok {
			log.Fatalf("unknown benchmark %q", *bench)
		}
		inst := workload.Build(p)
		m := inst.NewMachine(workload.CacheConfig(), true)
		col.machine = m
		m.RT = col

		m.Start()
		for col.budget > 0 && !col.stop.Load() {
			st, err := m.Run(0)
			if err != nil {
				log.Fatal(err)
			}
			if st == machine.Halted {
				break
			}
		}
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			log.Fatal(err)
		}
		if err := tracefile.Write(f, col.raw); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved %d references to %s\n", len(col.raw), *save)
	}

	cfg := hotprefetch.DefaultAnalysisConfig()
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	var (
		streams     []hotprefetch.Stream
		traceLen    uint64
		grammarSize int
	)
	switch {
	case *service:
		// Producers are done (budget exhausted or signal): drain the rings
		// and the analysis pool so the report and stats below are final.
		// Close is bounded — a stalled consumer or analysis pool surfaces
		// through HotStreams instead of hanging shutdown.
		svc.Close()
		var err error
		streams, err = svc.HotStreams(cfg)
		if err != nil {
			log.Printf("partial analysis: %v", err)
		}
		st := svc.Stats()
		traceLen, grammarSize = st.Consumed, st.GrammarSize
	case *precise:
		streams = profile.HotStreamsPrecise(cfg)
		traceLen = profile.Len()
		grammarSize = profile.GrammarSize()
	default:
		streams = profile.HotStreams(cfg)
		traceLen = profile.Len()
		grammarSize = profile.GrammarSize()
	}
	fmt.Printf("source       %s\n", name)
	fmt.Printf("traced refs  %d\n", traceLen)
	fmt.Printf("grammar size %d symbols\n", grammarSize)
	fmt.Printf("hot streams  %d\n", len(streams))
	if *service {
		st := svc.Stats()
		fmt.Printf("stats        %s\n", st)
		if *burstFlag != "off" && *burstFlag != "" {
			fmt.Printf("burst        shed=%d pushed=%d phase=%s duty-phases=%d\n",
				st.BurstShed, st.Pushed, st.Shards[0].BurstPhase, st.BurstDuty.Count)
		}
		if *memBudget > 0 {
			al := st.AnalysisLatency
			fmt.Printf("pipeline     cycles=%d analysis(last)=%v analysis(max)=%v analysis(mean)=%v ingest-stall(max)=%v queue=%d\n",
				st.CyclesAnalyzed, al.LastDuration(), al.MaxDuration(),
				time.Duration(al.Mean()), st.MaxCycleStall, st.AnalysisQueueDepth)
		}
	}
	fmt.Println()

	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeDOT(f, streams, *headLen); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote DFSM to %s\n", *dot)
	}

	for i, s := range streams {
		if i >= *top {
			fmt.Printf("... and %d more\n", len(streams)-*top)
			break
		}
		fmt.Printf("#%-3d len=%-4d heat=%-7d coverage=%5.2f%%  head: ", i+1, len(s.Refs), s.Heat, 100*s.Coverage(traceLen))
		for j, r := range s.Refs {
			if j == 4 {
				fmt.Print("...")
				break
			}
			fmt.Printf("(pc%d,0x%x) ", r.PC, r.Addr)
		}
		fmt.Println()
	}

	if len(replayNames) > 0 {
		replayPredictors(replayNames, streams, col.raw, *headLen)
	}
}

// replayPredictors trains each named predictor on the detected streams and
// replays the captured trace through it, reporting the matcher's accuracy
// ledger — an offline miniature of the predictor head-to-head.
func replayPredictors(names []string, streams []hotprefetch.Stream, raw []hotprefetch.Ref, headLen int) {
	fmt.Println()
	fmt.Println("predictor replay (trained on the streams above, over the captured trace)")
	for _, name := range names {
		cm, err := hotprefetch.NewConcurrentPredictor(name, streams, headLen)
		if err != nil {
			log.Fatal(err)
		}
		cm.EnableAccuracyTracking(0)
		var comparisons uint64
		for _, r := range raw {
			_, cmp := cm.Observe(r)
			comparisons += uint64(cmp)
		}
		issued, hits, outstanding, dropped := cm.AccuracyBooks()
		acc := 0.0
		if issued > 0 {
			acc = float64(hits) / float64(issued)
		}
		cmpPerRef := 0.0
		if len(raw) > 0 {
			cmpPerRef = float64(comparisons) / float64(len(raw))
		}
		fmt.Printf("%-8s issued=%-8d hits=%-8d accuracy=%.2f cmp/ref=%.1f outstanding=%d dropped=%d\n",
			name, issued, hits, acc, cmpPerRef, outstanding, dropped)
	}
}

// writeDOT builds the combined prefix-matching DFSM for the streams and
// renders it as Graphviz DOT.
func writeDOT(w io.Writer, streams []hotprefetch.Stream, headLen int) error {
	return dfsm.New(streams, headLen).WriteDOT(w)
}
