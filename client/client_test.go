package client_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotprefetch"
	"hotprefetch/client"
	"hotprefetch/internal/tracefile"
)

// newService boots a real multi-tenant service on a test listener.
func newService(t *testing.T, cfg hotprefetch.ServiceConfig) (*hotprefetch.Service, *httptest.Server) {
	t.Helper()
	svc, err := hotprefetch.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return svc, srv
}

func TestNewValidation(t *testing.T) {
	if _, err := client.New(client.Config{Tenant: "a"}); err == nil {
		t.Error("empty Server accepted")
	}
	if _, err := client.New(client.Config{Server: "http://x"}); err == nil {
		t.Error("empty Tenant accepted")
	}
}

// TestCaptureEndToEnd is the client library's round trip: captured
// references arrive in the tenant's server-side profile, and after Close the
// client's and server's books agree exactly.
func TestCaptureEndToEnd(t *testing.T) {
	svc, srv := newService(t, hotprefetch.ServiceConfig{})
	cc, err := client.New(client.Config{
		Server:        srv.URL,
		Tenant:        "app-1",
		Stream:        42,
		BufferRefs:    256,
		FlushInterval: -1, // explicit publishes only
		MaxPending:    64, // deep enough that nothing drops
	})
	if err != nil {
		t.Fatal(err)
	}
	const refs = 1000 // 3 full buffers + a partial for Close to publish
	for i := 0; i < refs; i++ {
		cc.Add(100+i%13, uint64(0x1000+8*(i%64)))
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	st := cc.Stats()
	if st.Captured != refs || st.Published != refs || st.Dropped != 0 {
		t.Fatalf("client books: %+v, want %d captured = published", st, refs)
	}
	sst := svc.Stats()
	if len(sst.Tenants) != 1 || sst.Tenants[0].Key != "app-1" {
		t.Fatalf("server tenants: %+v", sst.Tenants)
	}
	if got := sst.Tenants[0].PublishedRefs; got != refs {
		t.Fatalf("server received %d refs, client published %d", got, refs)
	}
	if p := sst.Tenants[0].Profile; p.Pushed != refs {
		t.Fatalf("server pushed %d, want %d", p.Pushed, refs)
	}
}

func TestCaptureAddBatchAndFlush(t *testing.T) {
	svc, srv := newService(t, hotprefetch.ServiceConfig{})
	cc, err := client.New(client.Config{
		Server: srv.URL, Tenant: "app-2", Stream: 7,
		BufferRefs: 128, FlushInterval: -1, MaxPending: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]client.Ref, 300) // spans multiple buffers
	for i := range batch {
		batch[i] = client.Ref{PC: i % 9, Addr: uint64(i)}
	}
	cc.AddBatch(batch)
	if err := cc.Flush(); err != nil { // push the 44-ref remainder
		t.Fatal(err)
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	if st := cc.Stats(); st.Published != 300 {
		t.Fatalf("published %d, want 300", st.Published)
	}
	if got := svc.Stats().Tenants[0].PublishedRefs; got != 300 {
		t.Fatalf("server received %d refs, want 300", got)
	}
}

// TestCaptureFlushKeepsCaptureOrder holds the background publish of a full
// buffer in the server handler while two more references are captured and
// flushed: Flush must wait for the held batch and publish after it, so the
// service applies references in capture order.
func TestCaptureFlushKeepsCaptureOrder(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	var order []int // first pc of each batch, in the order the server applied them
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		refs, err := tracefile.Read(r.Body)
		if err != nil || len(refs) == 0 {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		if refs[0].PC == 0 {
			<-release // hold the first batch's publish
		}
		mu.Lock()
		order = append(order, refs[0].PC)
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	defer once.Do(func() { close(release) })

	cc, err := client.New(client.Config{
		Server: srv.URL, Tenant: "order", Stream: 1,
		BufferRefs: 4, FlushInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cc.AddBatch(testBatch(0, 4)) // a full buffer: the publisher sends it and the server holds it
	cc.Add(100, 6400)
	cc.Add(101, 6464)
	flushed := make(chan error, 1)
	go func() { flushed <- cc.Flush() }()
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned (%v) while the batch captured before it was held unpublished", err)
	case <-time.After(100 * time.Millisecond):
	}
	once.Do(func() { close(release) })
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 100}; !reflect.DeepEqual(order, want) {
		t.Fatalf("server applied batches starting at pcs %v, want %v", order, want)
	}
}

// TestCapturePeriodicFlush covers the timer path: a partial buffer reaches
// the server without Flush or Close.
func TestCapturePeriodicFlush(t *testing.T) {
	svc, srv := newService(t, hotprefetch.ServiceConfig{})
	cc, err := client.New(client.Config{
		Server: srv.URL, Tenant: "app-3",
		FlushInterval: 5 * time.Millisecond, MaxPending: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	cc.Add(1, 0x10)
	cc.Add(2, 0x18)
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().PublishedRefs < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("periodic flush never published: client %+v", cc.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCaptureBackpressureDrops pins the never-block contract: with the
// publisher wedged behind a slow server, capture keeps absorbing references,
// drops whole batches, and the books still balance exactly.
func TestCaptureBackpressureDrops(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // wedge every publish until the test releases it
		w.WriteHeader(http.StatusOK)
	}))
	defer slow.Close()
	defer once.Do(func() { close(release) })

	cc, err := client.New(client.Config{
		Server: slow.URL, Tenant: "app-4",
		BufferRefs: 8, FlushInterval: -1, MaxPending: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const refs = 800
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < refs; i++ {
			cc.Add(i%5, uint64(i))
		}
	}()
	select {
	case <-done: // capture never blocked on the wedged server
	case <-time.After(10 * time.Second):
		t.Fatal("Add blocked behind a wedged publisher")
	}
	st := cc.Stats()
	if st.Dropped == 0 {
		t.Fatal("no drops despite a wedged publisher and MaxPending=1")
	}
	once.Do(func() { close(release) })
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	st = cc.Stats()
	if st.Captured != refs || st.Published+st.Dropped != refs {
		t.Fatalf("books don't balance: %+v (want published + dropped = %d)", st, refs)
	}
	t.Logf("backpressure: %d captured, %d published, %d dropped", st.Captured, st.Published, st.Dropped)
}

// TestCaptureServerErrors: failed publishes are counted, their refs are
// accounted as dropped, OnError fires, and Close reports the failures.
func TestCaptureServerErrors(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "tenant quota exhausted", http.StatusServiceUnavailable)
	}))
	defer bad.Close()
	var mu sync.Mutex
	var seen []error
	cc, err := client.New(client.Config{
		Server: bad.URL, Tenant: "app-5",
		BufferRefs: 4, FlushInterval: -1, MaxPending: 64,
		RetryBackoff: -1, // 503 is retryable; don't sleep between attempts
		OnError:      func(err error) { mu.Lock(); seen = append(seen, err); mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		cc.Add(1, uint64(i))
	}
	if err := cc.Close(); err == nil {
		t.Fatal("Close reported success despite failed publishes")
	}
	st := cc.Stats()
	if st.Errors == 0 || st.Dropped != 16 || st.Published != 0 {
		t.Fatalf("error books: %+v, want every ref dropped via failed publishes", st)
	}
	if st.Retries == 0 || st.Retried != 0 {
		t.Fatalf("retry books: %+v, want retries attempted but none succeeding", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 || !strings.Contains(seen[0].Error(), "quota exhausted") {
		t.Fatalf("OnError calls: %v", seen)
	}
}

// TestCaptureRetriesFlakyServer: transient 5xx and transport hiccups are
// retried with backoff inside the attempt budget, so a flaky server costs
// latency, not data — the batch is Published, not Dropped, and the books
// record exactly the retries that happened.
func TestCaptureRetriesFlakyServer(t *testing.T) {
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 { // first two attempts fail transiently
			http.Error(w, "shard swap in progress", http.StatusServiceUnavailable)
			return
		}
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusOK)
	}))
	defer flaky.Close()
	cc, err := client.New(client.Config{
		Server: flaky.URL, Tenant: "app-8",
		BufferRefs: 64, FlushInterval: -1,
		RetryBackoff: time.Millisecond, // exercise the backoff sleep, quickly
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		cc.Add(1, uint64(i))
	}
	if err := cc.Flush(); err != nil {
		t.Fatalf("Flush should survive two transient failures: %v", err)
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	st := cc.Stats()
	if st.Published != 10 || st.Dropped != 0 || st.Errors != 0 {
		t.Fatalf("flaky books: %+v, want all 10 published", st)
	}
	if st.Retries != 2 || st.Retried != 1 {
		t.Fatalf("retry books: %+v, want 2 retries rescuing 1 batch", st)
	}
}

// TestCaptureNoRetryOnRejection: a 4xx is the server's final answer — the
// client must not hammer it with the same bad request again.
func TestCaptureNoRetryOnRejection(t *testing.T) {
	var calls atomic.Int64
	reject := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "unknown tenant", http.StatusBadRequest)
	}))
	defer reject.Close()
	cc, err := client.New(client.Config{
		Server: reject.URL, Tenant: "app-9",
		BufferRefs: 64, FlushInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cc.Add(1, 1)
	if err := cc.Flush(); err == nil {
		t.Fatal("Flush succeeded against a rejecting server")
	}
	cc.Close()
	if got := calls.Load(); got != 1 {
		t.Fatalf("client sent %d requests for a permanent rejection, want 1", got)
	}
	if st := cc.Stats(); st.Retries != 0 || st.Dropped != 1 {
		t.Fatalf("rejection books: %+v, want no retries, 1 dropped", st)
	}
}

func TestCaptureCloseIdempotentAndAddAfterClose(t *testing.T) {
	_, srv := newService(t, hotprefetch.ServiceConfig{})
	cc, err := client.New(client.Config{Server: srv.URL, Tenant: "app-6", FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	cc.Add(1, 2)
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	cc.Add(3, 4) // must not panic or publish
	if st := cc.Stats(); st.Captured != 2 || st.Published != 1 || st.Dropped != 1 {
		t.Fatalf("post-close books: %+v", st)
	}
}

// TestCaptureConcurrentProducers drives Add from many goroutines — the
// documented shared-capture mode — under the race detector.
func TestCaptureConcurrentProducers(t *testing.T) {
	svc, srv := newService(t, hotprefetch.ServiceConfig{})
	cc, err := client.New(client.Config{
		Server: srv.URL, Tenant: "app-7",
		BufferRefs: 64, FlushInterval: time.Millisecond, MaxPending: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	const producers, each = 16, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				cc.Add(p, uint64(i))
			}
		}(p)
	}
	wg.Wait()
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	st := cc.Stats()
	if st.Captured != producers*each {
		t.Fatalf("captured %d, want %d", st.Captured, producers*each)
	}
	if st.Published+st.Dropped != st.Captured {
		t.Fatalf("books don't balance: %+v", st)
	}
	if got := svc.Stats().Tenants[0].PublishedRefs; got != st.Published {
		t.Fatalf("server received %d, client published %d", got, st.Published)
	}
}

// TestCaptureTenantMismatch: a capture pointed at a bad tenant key keeps
// failing cleanly rather than crashing or hanging.
func TestCaptureTenantMismatch(t *testing.T) {
	_, srv := newService(t, hotprefetch.ServiceConfig{})
	cc, err := client.New(client.Config{
		Server: srv.URL, Tenant: "bad key", // rejected server-side (400)
		BufferRefs: 2, FlushInterval: -1, MaxPending: 8,
	})
	if err != nil {
		t.Fatal(err) // key validity is the server's call, not the client's
	}
	cc.Add(1, 1)
	cc.Add(2, 2)
	err = cc.Close()
	if err == nil {
		t.Fatal("Close succeeded against a rejecting server")
	}
	if st := cc.Stats(); st.Published != 0 || st.Dropped != 2 {
		t.Fatalf("mismatch books: %+v", st)
	}
}

// stubTransport answers every publish with 200 without a network or a
// server, so allocation measurements see only the client's own work plus
// net/http's fixed per-request cost. Like any RoundTripper it closes the
// request body, which is what returns the encode buffer to the pool.
type stubTransport struct{}

func (stubTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req.Body.Close()
	return ok200(), nil
}

func ok200() *http.Response {
	return &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Body: http.NoBody}
}

// holdingTransport answers every publish with 200 without reading the
// request body, keeping every body it was handed — a transport that still
// holds a body after HTTPClient.Do has returned. onRoundTrip, when set,
// runs with the bodies held so far, the current one last.
type holdingTransport struct {
	bodies      []io.ReadCloser
	onRoundTrip func(bodies []io.ReadCloser)
}

func (h *holdingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h.bodies = append(h.bodies, req.Body)
	if h.onRoundTrip != nil {
		h.onRoundTrip(h.bodies)
	}
	return ok200(), nil
}

// publishThrough flushes each batch as its own publish through rt and
// returns the bodies rt kept.
func publishThrough(t *testing.T, rt *holdingTransport, batches ...[]client.Ref) []io.ReadCloser {
	t.Helper()
	cc, err := client.New(client.Config{
		Server: "http://stub", Tenant: "hold", Stream: 1,
		BufferRefs: 1024, FlushInterval: -1,
		HTTPClient: &http.Client{Transport: rt},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for _, b := range batches {
		cc.AddBatch(b)
		if err := cc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if len(rt.bodies) != len(batches) {
		t.Fatalf("transport saw %d publishes, want %d", len(rt.bodies), len(batches))
	}
	return rt.bodies
}

// testBatch returns n distinct references starting at pc base.
func testBatch(base, n int) []client.Ref {
	refs := make([]client.Ref, n)
	for i := range refs {
		refs[i] = client.Ref{PC: base + i, Addr: uint64(base+i) * 64}
	}
	return refs
}

// assertBody decodes a held request body and checks it is batch want.
func assertBody(t *testing.T, body io.Reader, want []client.Ref, which string) {
	t.Helper()
	got, err := tracefile.Read(body)
	if err != nil {
		t.Fatalf("%s body: %v", which, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s body decoded to a different batch: its buffer was reused while the transport held it", which)
	}
}

// TestCaptureHeldBodyNotReused pins the pooled body's lifetime: the encode
// buffer returns to the pool when the transport closes the body, not when
// HTTPClient.Do returns, so a body the transport still holds keeps its
// batch across the next publish.
func TestCaptureHeldBodyNotReused(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	first, second := testBatch(0, 300), testBatch(5000, 300)
	bodies := publishThrough(t, &holdingTransport{}, first, second)
	assertBody(t, bodies[0], first, "first")
	assertBody(t, bodies[1], second, "second")
}

// TestCaptureStaleCloseNotPooled: a second Close of an already-closed body
// must not pool the buffer again — by then a later publish holds it.
func TestCaptureStaleCloseNotPooled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rt := &holdingTransport{onRoundTrip: func(bodies []io.ReadCloser) {
		// The first body closes normally, pooling its buffer, which the
		// second publish then takes; that publish's round trip sees a stale
		// repeat Close of the first body.
		if len(bodies) <= 2 {
			bodies[0].Close()
		}
	}}
	batches := [][]client.Ref{testBatch(0, 300), testBatch(5000, 300), testBatch(9000, 300)}
	bodies := publishThrough(t, rt, batches...)
	assertBody(t, bodies[1], batches[1], "second")
	assertBody(t, bodies[2], batches[2], "third")
}

// newStubCapture builds a capture publishing into stubTransport with the
// background timer off, so publishes happen only on Flush.
func newStubCapture(t testing.TB, bufferRefs int) *client.Capture {
	t.Helper()
	cc, err := client.New(client.Config{
		Server: "http://stub", Tenant: "alloc", Stream: 1,
		BufferRefs: bufferRefs, FlushInterval: -1,
		HTTPClient: &http.Client{Transport: stubTransport{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc
}

// TestCapturePublishSteadyStateAllocs mirrors the grammar's
// TestAppendRunSteadyStateAllocs for the capture loop: once the batch
// freelist and encode-buffer pool are primed, a capture-and-flush cycle's
// allocations are net/http's per-request cost alone — the buffer rotation
// and the tracefile framing reuse pooled memory.
func TestCapturePublishSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping under -race")
	}
	cc := newStubCapture(t, 1024)
	refs := make([]client.Ref, 512)
	for i := range refs {
		refs[i] = client.Ref{PC: i % 37, Addr: uint64(i%53) * 8}
	}
	// Prime the freelist and pools with one full cycle.
	cc.AddBatch(refs)
	if err := cc.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		cc.AddBatch(refs)
		if err := cc.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	// Everything the client owns is pooled — the encode buffer, the batch
	// slices, the parsed URL; the 10 allocations that remain are
	// http.Client.Do's fixed per-request construction (header clone,
	// cancellation plumbing) plus the stub's Response. The pre-pooling
	// path cost 34. The bound holds that floor with small headroom.
	if allocs > 12 {
		t.Errorf("steady-state capture+flush allocated %.1f times per publish, want <= 12", allocs)
	}
}

// BenchmarkClientPublish measures one full capture-and-publish cycle
// against the stub transport: buffer rotation, tracefile framing, and the
// HTTP round trip minus the network.
func BenchmarkClientPublish(b *testing.B) {
	cc := newStubCapture(b, 4096) // larger than the batch so Flush publishes synchronously
	refs := make([]client.Ref, 2048)
	for i := range refs {
		refs[i] = client.Ref{PC: i % 37, Addr: uint64(i%53) * 8}
	}
	cc.AddBatch(refs)
	if err := cc.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.AddBatch(refs)
		if err := cc.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}
