// Command hdsprofd is the networked multi-tenant profiling daemon: it hosts
// the hotprefetch.Service HTTP API — trace ingest, per-tenant hot streams,
// stats, and Prometheus metrics — on one address with one graceful-shutdown
// lifecycle. Remote processes embed the client package (or POST
// tracefile-framed bodies directly) to publish their reference streams;
// each tenant key gets an independent sharded profile built from the flags
// below.
//
// Usage:
//
//	hdsprofd -listen :9190
//	hdsprofd -listen :9190 -shards 4 -membudget 4096 -workers 2 \
//	         -policy drop -burst paper -quota 10000000 -tenants 128
//
// SIGINT/SIGTERM drains gracefully: the HTTP server stops accepting work
// and finishes in-flight publishes and scrapes first (bounded by
// -draintimeout), then the tenant profiles drain and close, then the final
// service stats print — so an interrupted daemon still reports complete,
// reconciled books.
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
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hotprefetch"
)

var (
	publishExpvar sync.Once
	currentSvc    atomic.Pointer[hotprefetch.Service]
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hdsprofd: ")
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		log.Fatal(err)
	}
}

// run is main minus the process plumbing, so tests can boot the daemon
// in-process against a real listener: ready (when non-nil) receives the
// bound address once the server is accepting.
func run(args []string, out io.Writer, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("hdsprofd", flag.ContinueOnError)
	listen := fs.String("listen", ":9190", "address to serve the profiling API on")
	shards := fs.Int("shards", 0, "shards per tenant profile (0 = 1)")
	policy := fs.String("policy", "block", "per-tenant ingestion policy: block, drop, or sample")
	sampleN := fs.Int("samplen", 16, "Sample policy: accept 1 in N under pressure")
	memBudget := fs.Int("membudget", 4096, "per-shard grammar symbol budget (0 = unbounded)")
	workers := fs.Int("workers", 1, "background analysis workers per tenant (0 = inline cycles)")
	burstFlag := fs.String("burst", "off", "bursty-sampling front end: off, paper, or nCheck:nInstr:nAwake:nHibernate")
	quota := fs.Uint64("quota", 0, "per-tenant lifetime reference quota (0 = unlimited)")
	tenants := fs.Int("tenants", 0, "max registered tenants before LRU eviction (0 = 64)")
	maxBody := fs.Int64("maxbody", 0, "max publish body bytes (0 = 32 MiB)")
	metricsTenants := fs.Int("metricstenants", 0, "tenant label cardinality bound for /metrics (0 = 16)")
	snapshotDir := fs.String("snapshot-dir", "", "directory for durable per-tenant snapshots (empty = disabled); tenants warm-start from it at boot")
	snapshotInterval := fs.Duration("snapshot-interval", time.Minute, "periodic checkpoint cadence when -snapshot-dir is set (<= 0 disables the loop)")
	drainTimeout := fs.Duration("draintimeout", 10*time.Second, "how long shutdown waits for in-flight requests")
	if err := fs.Parse(args); err != nil {
		return err
	}

	pol, err := hotprefetch.ParseIngestPolicy(*policy)
	if err != nil {
		return err
	}
	burstCfg, err := hotprefetch.ParseBurstConfig(*burstFlag)
	if err != nil {
		return err
	}
	svc, err := hotprefetch.NewService(hotprefetch.ServiceConfig{
		Tenant: hotprefetch.ShardedConfig{
			Shards:            *shards,
			Policy:            pol,
			SampleInterval:    *sampleN,
			MaxGrammarSymbols: *memBudget,
			AnalysisWorkers:   *workers,
			Burst:             burstCfg,
			RefQuota:          *quota,
		},
		MaxTenants:       *tenants,
		MaxBodyBytes:     *maxBody,
		MetricsTenants:   *metricsTenants,
		SnapshotDir:      *snapshotDir,
		SnapshotInterval: *snapshotInterval,
	})
	if err != nil {
		return err
	}
	if *snapshotDir != "" {
		if err := os.MkdirAll(*snapshotDir, 0o755); err != nil {
			svc.Close()
			return fmt.Errorf("snapshot dir: %w", err)
		}
		loaded, failed := svc.LoadSnapshots()
		log.Printf("warm start from %s: %d tenants restored, %d snapshots failed to load", *snapshotDir, loaded, failed)
	}

	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	// expvar registration is global and panics on duplicates; route through a
	// process-wide slot so a test can run the daemon more than once.
	currentSvc.Store(svc)
	publishExpvar.Do(func() {
		expvar.Publish("hotprefetch_service", expvar.Func(func() any {
			if s := currentSvc.Load(); s != nil {
				return s.Stats()
			}
			return nil
		}))
	})
	mux.Handle("GET /debug/vars", expvar.Handler())

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	log.Printf("serving profiling API on http://%s (ingest, hotstreams, stats, metrics)", ln.Addr())
	if ready != nil {
		ready <- ln.Addr()
	}

	select {
	case <-ctx.Done():
		log.Printf("received shutdown signal: draining (timeout %v)", *drainTimeout)
	case err := <-serveErr:
		svc.Close()
		return fmt.Errorf("serve: %w", err)
	}

	// One lifecycle for every endpoint: the server's Shutdown finishes
	// in-flight publishes and scrapes against a live registry, and only then
	// do the tenant profiles drain and close.
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("shutdown: %v (closing anyway)", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	// Final checkpoint after the publish fence and before Close empties the
	// registry: every tenant's banked streams land durably, so the next boot
	// warm-starts from exactly what this run learned. A newer-generation
	// file (another instance took over the directory) is refused per tenant,
	// never clobbered.
	if *snapshotDir != "" {
		if n, err := svc.CheckpointAll(); err != nil {
			log.Printf("final checkpoint: %d written, %v", n, err)
		} else {
			log.Printf("final checkpoint: %d tenants written to %s", n, *snapshotDir)
		}
	}
	// Snapshot before Close empties the registry; the producer-side counters
	// the report prints are final because Shutdown fenced off new publishes.
	st := svc.Stats()
	svc.Close()
	fmt.Fprintf(out, "tenants      %d (evictions %d)\n", st.TenantCount, st.Evictions)
	fmt.Fprintf(out, "publishes    %d (%d refs; %d decode errors, %d rejected)\n",
		st.Publishes, st.PublishedRefs, st.DecodeErrors, st.Rejected)
	if *snapshotDir != "" {
		fmt.Fprintf(out, "snapshots    loads=%d loadfailures=%d writes=%d writeerrors=%d refused=%d\n",
			st.SnapshotLoads, st.SnapshotLoadFailures, st.SnapshotWrites, st.SnapshotWriteErrors, st.SnapshotRefused)
	}
	for _, t := range st.Tenants {
		p := t.Profile
		fmt.Fprintf(out, "tenant %-20s refs=%d pushed=%d dropped=%d sampled=%d burst=%d quota=%d resets=%d\n",
			t.Key, t.PublishedRefs, p.Pushed, p.Dropped, p.Sampled, p.BurstShed, p.QuotaShed, p.Resets)
	}
	return nil
}
