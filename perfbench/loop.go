package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"hotprefetch"
	"hotprefetch/client"
	"hotprefetch/internal/memsim"
	"hotprefetch/internal/obs"
	"hotprefetch/internal/workload"
)

const (
	// publishRefs is the number of references between publishes. It stays
	// below the client's default BufferRefs (8192), so the capture never
	// hands a batch to its background publisher: every publish is the
	// synchronous Capture.Flush the loop times.
	publishRefs = 2048

	tenantKey = "bench"

	// digestTimeout bounds the wait for background analysis to settle.
	digestTimeout = 30 * time.Second
)

// stack is one fresh instance of the production path the benchmark drives:
// client capture → in-process HTTP → Service handler → the tenant's
// ShardedProfile → Supervisor → ConcurrentMatcher, with memsim playing the
// program's memory hierarchy.
type stack struct {
	svc *hotprefetch.Service
	sp  *hotprefetch.ShardedProfile
	cm  *hotprefetch.ConcurrentMatcher
	sup *hotprefetch.Supervisor
	cap *client.Capture
	tr  *transport
	mem *memsim.Hierarchy

	reads []*endpoint

	// Simulated program state: cycle clock and detection comparisons.
	now, comparisons uint64

	// settled is the grammar-cycle count at the last confirmed quiescence;
	// probes counts the Stats calls the digest wait made, whose allocation
	// (probeBytes, probeMallocs per call) is taken out of the alloc metrics.
	settled                  uint64
	probes                   uint64
	probeBytes, probeMallocs float64
}

// newStack builds the daemon's default tenant (hdsprofd defaults: one shard,
// Block policy, 4096-symbol grammar budget, one analysis worker, prepass on
// as the Service resolves it) plus a manual-Poll Supervisor over a
// pass-through matcher, and wires io to its handler.
func newStack(sp spec, io *endpoints) (*stack, error) {
	svc, err := hotprefetch.NewService(hotprefetch.ServiceConfig{
		Tenant: hotprefetch.ShardedConfig{
			Shards:            1,
			Policy:            hotprefetch.Block,
			SampleInterval:    16,
			MaxGrammarSymbols: 4096,
			AnalysisWorkers:   1,
			Burst:             sp.burst,
		},
	})
	if err != nil {
		return nil, err
	}
	s := &stack{svc: svc, mem: memsim.New(workload.CacheConfig())}
	t, err := svc.Tenant(tenantKey)
	if err != nil {
		s.close()
		return nil, err
	}
	s.sp = t.Profile()
	if s.cm, err = hotprefetch.NewConcurrentMatcher(nil, 2); err != nil {
		s.close()
		return nil, err
	}
	if s.sup, err = hotprefetch.Supervise(s.sp, s.cm, hotprefetch.SupervisorConfig{}); err != nil {
		s.close()
		return nil, err
	}
	s.tr, s.reads = io.attach(svc.Handler())
	s.cap, err = client.New(client.Config{
		Server:        "http://hdsprofd.invalid",
		Tenant:        tenantKey,
		Stream:        1,
		FlushInterval: -1,
		HTTPClient:    &http.Client{Transport: s.tr},
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.calibrateProbe()
	return s, nil
}

// close tears the stack down; every goroutine it started has exited when
// close returns.
func (s *stack) close() error {
	var err error
	if s.cap != nil {
		err = s.cap.Close()
	}
	if s.sup != nil {
		s.sup.Close()
	}
	s.svc.Close()
	return err
}

// calibrateProbe measures what one ShardedProfile.Stats call allocates, so
// the digest wait's probes can be taken out of the allocation metrics.
// Nothing else allocates while it runs: the stack is idle.
func (s *stack) calibrateProbe() {
	const n = 64
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		s.sp.Stats()
	}
	runtime.ReadMemStats(&b)
	s.probeBytes = float64(b.TotalAlloc-a.TotalAlloc) / n
	s.probeMallocs = float64(b.Mallocs-a.Mallocs) / n
}

// replay runs one publish step's references through the simulated program:
// per reference memsim.Access, then ConcurrentMatcher.Observe, then
// memsim.Prefetch for each returned address, charging one cycle per
// detection comparison as experiment.replayPredictor does.
func (s *stack) replay(refs []client.Ref) {
	mem, cm := s.mem, s.cm
	now, cmps := s.now, s.comparisons
	for _, r := range refs {
		now += 1 + mem.Access(now, r.PC, r.Addr, false)
		pf, c := cm.Observe(hotprefetch.Ref(r))
		now += uint64(c)
		cmps += uint64(c)
		for _, a := range pf {
			mem.Prefetch(now, a)
		}
	}
	s.now, s.comparisons = now, cmps
}

// replayTraced is replay with each Access/Prefetch and Observe call timed.
// The per-reference times are summed into one memsim and one matcher span
// under parent, laid end to end from the replay's start.
func (s *stack) replayTraced(refs []client.Ref, rec *recorder, id, parent int) {
	mem, cm := s.mem, s.cm
	now, cmps := s.now, s.comparisons
	start := rec.now()
	t0 := start
	var memNs, obsNs int64
	for _, r := range refs {
		now += 1 + mem.Access(now, r.PC, r.Addr, false)
		t1 := rec.now()
		pf, c := cm.Observe(hotprefetch.Ref(r))
		t2 := rec.now()
		now += uint64(c)
		cmps += uint64(c)
		for _, a := range pf {
			mem.Prefetch(now, a)
		}
		t3 := rec.now()
		memNs += (t1 - t0) + (t3 - t2)
		obsNs += t2 - t1
		t0 = t3
	}
	s.now, s.comparisons = now, cmps
	rec.add("memsim.access", id, parent, start, start+memNs)
	rec.add("matcher.observe", id, parent, start+memNs, start+memNs+obsNs)
}

// waitDigest returns once every grammar cycle the flushed references
// triggered has been analyzed and banked. The allocation-free observer
// counters gate the wait; a Stats probe then confirms the books balance
// (CyclesAnalyzed + AnalysesFailed + AnalysesSkipped == Resets) and no
// analysis is still pending, since banking lands after the analyzed count.
func (s *stack) waitDigest() error {
	o := s.sp.Observer()
	started := o.Count(obs.KindCycleStart)
	if started == s.settled {
		return nil
	}
	deadline := time.Now().Add(digestTimeout)
	for {
		done := o.Count(obs.KindCycleAnalyzed) + o.Count(obs.KindAnalysisFailed) + o.Count(obs.KindAnalysisSkipped)
		if done >= started {
			s.probes++
			st := s.sp.Stats()
			if st.CyclesAnalyzed+st.AnalysesFailed+st.AnalysesSkipped == st.Resets && pendingAnalyses(st) == 0 {
				s.settled = st.Resets
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("background analysis did not settle within %v", digestTimeout)
		}
		runtime.Gosched()
	}
}

func pendingAnalyses(st hotprefetch.Stats) int64 {
	var n int64
	for _, sh := range st.Shards {
		n += sh.PendingAnalyses
	}
	return n
}

// endpoints is the benchmark's own side of the service: the client's
// transport and the operator read routes (GET /stats, /metrics, /hotstreams
// and /snapshot, in that order), with their requests and response buffers.
// One set lives for the whole run and is wired to each round's fresh stack,
// so the buffers reach their size in the warm-up round and are already
// live when a timed round takes its heap baseline: neither the timed
// rounds' allocation nor their resident heap counts them.
type endpoints struct {
	tr    *transport
	reads []*endpoint
}

func newEndpoints() *endpoints {
	return &endpoints{
		tr: &transport{ingest: newEndpoint(http.MethodPost, "/ingest", "service.ingest")},
		reads: []*endpoint{
			newEndpoint(http.MethodGet, "/stats", "service.stats"),
			newEndpoint(http.MethodGet, "/metrics", "service.metrics"),
			newEndpoint(http.MethodGet, "/hotstreams?tenant="+tenantKey, "service.hotstreams"),
			newEndpoint(http.MethodGet, "/snapshot?tenant="+tenantKey, "persist.snapshot"),
		},
	}
}

// attach points every route at h and zeroes the transport's per-round
// counters.
func (io *endpoints) attach(h http.Handler) (*transport, []*endpoint) {
	io.tr.ingest.h = h
	for _, e := range io.reads {
		e.h = h
	}
	io.tr.rec, io.tr.wireBytes, io.tr.non2xx = nil, 0, 0
	return io.tr, io.reads
}

// endpoint is one service route served in-process: a reusable request and
// a response writer whose buffer keeps the last response body.
type endpoint struct {
	h    http.Handler
	name string // span name
	req  *http.Request
	w    respWriter
}

func newEndpoint(method, target, name string) *endpoint {
	req, err := http.NewRequest(method, "http://hdsprofd.invalid"+target, nil)
	if err != nil {
		panic(err) // the targets are constants
	}
	return &endpoint{name: name, req: req, w: respWriter{hdr: make(http.Header)}}
}

// serve runs the handler on req (the endpoint's own request when nil) and
// returns the status.
func (e *endpoint) serve(req *http.Request) int {
	if req == nil {
		req = e.req
	}
	e.w.reset()
	e.h.ServeHTTP(&e.w, req)
	if e.w.status == 0 {
		e.w.status = http.StatusOK
	}
	return e.w.status
}

// respWriter is a reusable http.ResponseWriter.
type respWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(p)
}

func (w *respWriter) reset() {
	clear(w.hdr)
	w.status = 0
	w.buf.Reset()
}

// transport is the client's http.RoundTripper: it serves each publish with
// the service handler on the calling goroutine, standing in for the network
// so the loop measures the program and not a socket. It allocates nothing
// per request itself.
type transport struct {
	ingest *endpoint
	resp   http.Response
	body   bodyReader

	// Set by the loop before each Capture.Flush in a traced round, so the
	// handler's span nests under the client's.
	rec        *recorder
	id, parent int

	wireBytes uint64
	non2xx    uint64
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.wireBytes += uint64(req.ContentLength)
	sp := t.rec.begin(t.ingest.name, t.id, t.parent)
	status := t.ingest.serve(req)
	t.rec.end(sp)
	if status/100 != 2 {
		t.non2xx++
	}
	if req.Body != nil {
		req.Body.Close()
	}
	t.body.Reset(t.ingest.w.buf.Bytes())
	t.resp = http.Response{
		Status:     http.StatusText(status),
		StatusCode: status,
		Header:     t.ingest.w.hdr,
		Body:       &t.body,
		Request:    req,
	}
	return &t.resp, nil
}

// bodyReader is a reusable response body over the writer's buffer.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }
