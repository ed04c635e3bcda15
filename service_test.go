package hotprefetch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hotprefetch/internal/ref"
	"hotprefetch/internal/tracefile"
)

// encodeTrace frames refs with the tracefile wire format, the ingest
// endpoint's body encoding.
func encodeTrace(t testing.TB, refs []ref.Ref) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tracefile.Write(&buf, refs); err != nil {
		t.Fatalf("encode trace: %v", err)
	}
	return buf.Bytes()
}

// makeRefs builds n references on a per-stream address walk so grammars see
// regular structure.
func makeRefs(stream uint64, n int) []ref.Ref {
	refs := make([]ref.Ref, n)
	for i := range refs {
		refs[i] = ref.Ref{PC: int(stream%31) + i%7, Addr: stream<<20 + uint64(i%64)*8}
	}
	return refs
}

// postTrace publishes refs under tenant/stream and returns the response.
func postTrace(t testing.TB, client *http.Client, base, tenant string, stream uint64, refs []ref.Ref) *http.Response {
	t.Helper()
	url := fmt.Sprintf("%s/ingest?tenant=%s&stream=%d", base, tenant, stream)
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(encodeTrace(t, refs)))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	return resp
}

// reconcile asserts the per-tenant books balance exactly: every reference the
// ingest endpoint accepted is in exactly one shed-or-accepted bucket.
func reconcile(t *testing.T, ts TenantStats) {
	t.Helper()
	p := ts.Profile
	accounted := p.Pushed + p.Dropped + p.Sampled + p.BurstShed + p.QuotaShed
	if ts.PublishedRefs != accounted {
		t.Errorf("tenant %s: published %d != pushed %d + dropped %d + sampled %d + burst %d + quota %d = %d",
			ts.Key, ts.PublishedRefs, p.Pushed, p.Dropped, p.Sampled, p.BurstShed, p.QuotaShed, accounted)
	}
}

func TestValidTenantKey(t *testing.T) {
	for _, key := range []string{"a", "tenant-1", "svc.prod_7", "A-Z.az-09", strings.Repeat("x", 64)} {
		if !validTenantKey(key) {
			t.Errorf("validTenantKey(%q) = false, want true", key)
		}
	}
	for _, key := range []string{"", "a b", "a/b", "a\nb", "ключ", strings.Repeat("x", 65), "a$"} {
		if validTenantKey(key) {
			t.Errorf("validTenantKey(%q) = true, want false", key)
		}
	}
}

func TestServiceTenantLifecycle(t *testing.T) {
	svc, err := NewService(ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ta, err := svc.Tenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if ta.Key() != "alpha" || ta.Profile() == nil {
		t.Fatalf("tenant handle: key %q profile %v", ta.Key(), ta.Profile())
	}
	if again, _ := svc.Tenant("alpha"); again != ta {
		t.Fatal("second Tenant call returned a different handle")
	}
	if _, err := svc.Tenant("no spaces"); err == nil {
		t.Fatal("bad tenant key accepted")
	}
	if _, ok := svc.Lookup("beta"); ok {
		t.Fatal("Lookup materialized a tenant")
	}
	if !svc.Evict("alpha") || svc.Evict("alpha") {
		t.Fatal("Evict: want true then false")
	}
	if err := ta.sp.PublishBatch(1, []Ref{{PC: 1, Addr: 1}}); err != ErrClosed {
		t.Fatalf("publish to evicted tenant: %v, want ErrClosed", err)
	}
	svc.Close()
	svc.Close() // idempotent
	if _, err := svc.Tenant("gamma"); err != ErrServiceClosed {
		t.Fatalf("Tenant after Close: %v, want ErrServiceClosed", err)
	}
}

func TestServiceLRUEviction(t *testing.T) {
	svc, err := NewService(ServiceConfig{MaxTenants: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, key := range []string{"a", "b", "c"} { // c evicts a (oldest publish)
		if _, err := svc.Tenant(key); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := svc.Lookup("a"); ok {
		t.Fatal("LRU tenant survived eviction")
	}
	for _, key := range []string{"b", "c"} {
		if _, ok := svc.Lookup(key); !ok {
			t.Fatalf("tenant %q missing after eviction", key)
		}
	}
	if got := svc.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	// Touching b makes c the LRU victim for the next insert.
	if _, err := svc.Tenant("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Tenant("d"); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.Lookup("c"); ok {
		t.Fatal("recency update did not protect b: c should be the victim")
	}
}

func TestServiceIngestHTTP(t *testing.T) {
	svc, err := NewService(ServiceConfig{MaxBodyBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	refs := makeRefs(7, 3000) // several decode chunks
	resp := postTrace(t, srv.Client(), srv.URL, "alpha", 7, refs)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest: %s: %s", resp.Status, body)
	}
	var res struct {
		Tenant     string `json:"tenant"`
		Accepted   uint64 `json:"accepted"`
		TenantRefs uint64 `json:"tenant_refs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Tenant != "alpha" || res.Accepted != 3000 || res.TenantRefs != 3000 {
		t.Fatalf("ingest result = %+v", res)
	}

	// Status mapping: bad key 400, bad magic 400, truncated body 400,
	// oversized body 413, unknown-tenant hot streams 404.
	for _, tc := range []struct {
		name string
		do   func() *http.Response
		want int
	}{
		{"bad tenant key", func() *http.Response {
			return postTrace(t, srv.Client(), srv.URL, "no+key", 1, refs[:1])
		}, http.StatusBadRequest},
		{"bad magic", func() *http.Response {
			resp, err := srv.Client().Post(srv.URL+"/ingest?tenant=alpha", "application/octet-stream",
				strings.NewReader("NOTATRACE"))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusBadRequest},
		// Failure cases that may partially publish go to their own tenant so
		// alpha's books below stay exactly 3000.
		{"truncated body", func() *http.Response {
			enc := encodeTrace(t, refs[:100])
			resp, err := srv.Client().Post(srv.URL+"/ingest?tenant=beta", "application/octet-stream",
				bytes.NewReader(enc[:len(enc)/2]))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusBadRequest},
		{"oversized body", func() *http.Response {
			return postTrace(t, srv.Client(), srv.URL, "beta", 7, makeRefs(7, 1<<16))
		}, http.StatusRequestEntityTooLarge},
		{"unknown tenant streams", func() *http.Response {
			resp, err := srv.Client().Get(srv.URL + "/hotstreams?tenant=nobody")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusNotFound},
	} {
		resp := tc.do()
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// The accepted publish is still the only successful one; failed decodes
	// are counted, and every tenant's books balance — including beta's, whose
	// failed requests partially published before dying.
	st := svc.Stats()
	if st.Publishes != 1 {
		t.Fatalf("service publishes = %d, want 1", st.Publishes)
	}
	if st.DecodeErrors < 3 || st.Rejected != 1 {
		t.Fatalf("decode errors %d (want >= 3), rejected %d (want 1)", st.DecodeErrors, st.Rejected)
	}
	for _, ts := range st.Tenants {
		reconcile(t, ts)
		if ts.Key == "alpha" && ts.PublishedRefs != 3000 {
			t.Fatalf("alpha published %d refs, want exactly 3000", ts.PublishedRefs)
		}
	}

	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"hotprefetch_service_tenants",
		"hotprefetch_service_published_refs_total",
		`hotprefetch_tenant_published_refs_total{tenant="alpha"} 3000`,
		`hotprefetch_tenant_refs_pushed_total{tenant="alpha"}`,
	} {
		if !strings.Contains(string(metrics), series) {
			t.Errorf("metrics exposition missing %q", series)
		}
	}
}

func TestServiceHotStreamsEndpoint(t *testing.T) {
	svc, err := NewService(ServiceConfig{
		Tenant: ShardedConfig{
			MaxGrammarSymbols: 64,
			cycleAnalysis:     AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// A hot 12-ref stream interleaved with fresh cold references: the
	// repetition gives the stream heat, the cold refs grow the grammar past
	// its 64-symbol budget so cycles run and bank the stream.
	hot := make([]ref.Ref, 12)
	for i := range hot {
		hot[i] = ref.Ref{PC: 500 + i, Addr: uint64(0x4000 + 8*i)}
	}
	refs := make([]ref.Ref, 0, 9000)
	for r := 0; len(refs) < 9000; r++ {
		refs = append(refs, hot...)
		refs = append(refs, ref.Ref{PC: 77000, Addr: uint64(0xbeef0000 + 64*r)})
	}
	resp := postTrace(t, srv.Client(), srv.URL, "alpha", 1, refs)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s", resp.Status)
	}
	// Drain so the banked streams are visible; the endpoint reads live.
	ta, _ := svc.Lookup("alpha")
	if err := ta.Profile().Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err = srv.Client().Get(srv.URL + "/hotstreams?tenant=alpha&top=5")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Tenant  string `json:"tenant"`
		Streams []struct {
			Refs []Ref  `json:"refs"`
			Heat uint64 `json:"heat"`
		} `json:"streams"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Tenant != "alpha" || len(out.Streams) == 0 {
		t.Fatalf("hot streams response: tenant %q, %d streams (want some)", out.Tenant, len(out.Streams))
	}
	if len(out.Streams) > 5 {
		t.Fatalf("top=5 returned %d streams", len(out.Streams))
	}
	for _, s := range out.Streams {
		if len(s.Refs) < 2 || s.Heat == 0 {
			t.Fatalf("degenerate banked stream %+v", s)
		}
	}
}

// TestServiceQuotaIsolation pins the per-tenant quota contract: a tenant
// blowing through its RefQuota sheds its own overflow exactly, and a sibling
// tenant on the same service sheds nothing.
func TestServiceQuotaIsolation(t *testing.T) {
	const quota = 5_000
	svc, err := NewService(ServiceConfig{
		Tenant: ShardedConfig{RefQuota: quota},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	greedy := makeRefs(1, 20_000)
	modest := makeRefs(2, 1_000)
	resp := postTrace(t, srv.Client(), srv.URL, "greedy", 1, greedy)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp = postTrace(t, srv.Client(), srv.URL, "modest", 2, modest)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	st := svc.Stats()
	for _, ts := range st.Tenants {
		reconcile(t, ts)
		switch ts.Key {
		case "greedy":
			if ts.Profile.QuotaShed != 20_000-quota {
				t.Errorf("greedy quota shed = %d, want %d", ts.Profile.QuotaShed, 20_000-quota)
			}
			if ts.Profile.Pushed != quota {
				t.Errorf("greedy pushed = %d, want %d", ts.Profile.Pushed, quota)
			}
		case "modest":
			if ts.Profile.QuotaShed != 0 {
				t.Errorf("modest shed %d refs to a sibling's quota pressure", ts.Profile.QuotaShed)
			}
			if ts.Profile.Pushed != 1_000 {
				t.Errorf("modest pushed = %d, want 1000", ts.Profile.Pushed)
			}
		}
	}
}

// TestServiceTenantIsolationConcurrent drives concurrent clients on distinct
// tenants through the HTTP ingest path and demands exact per-tenant books:
// under the Block policy nothing sheds, so every tenant's pushed count must
// equal exactly what its own clients produced — cross-tenant bleed of even
// one reference fails the reconciliation.
func TestServiceTenantIsolationConcurrent(t *testing.T) {
	const (
		tenants          = 16
		clientsPerTenant = 8
		batches          = 4
		batchRefs        = 500
	)
	svc, err := NewService(ServiceConfig{MaxTenants: tenants})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		for ci := 0; ci < clientsPerTenant; ci++ {
			wg.Add(1)
			go func(ti, ci int) {
				defer wg.Done()
				tenant := fmt.Sprintf("tenant-%02d", ti)
				stream := uint64(ti*1000 + ci)
				for b := 0; b < batches; b++ {
					resp := postTrace(t, srv.Client(), srv.URL, tenant, stream, makeRefs(stream, batchRefs))
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("tenant %s client %d: %s", tenant, ci, resp.Status)
						return
					}
				}
			}(ti, ci)
		}
	}
	wg.Wait()

	const perTenant = clientsPerTenant * batches * batchRefs
	st := svc.Stats()
	if st.TenantCount != tenants {
		t.Fatalf("tenant count = %d, want %d", st.TenantCount, tenants)
	}
	for _, ts := range st.Tenants {
		reconcile(t, ts)
		if ts.PublishedRefs != perTenant {
			t.Errorf("tenant %s published %d refs, want exactly %d", ts.Key, ts.PublishedRefs, perTenant)
		}
		if p := ts.Profile; p.Pushed != perTenant || p.Dropped+p.Sampled+p.BurstShed+p.QuotaShed != 0 {
			t.Errorf("tenant %s books: pushed %d shed %d, want %d / 0 under Block",
				ts.Key, p.Pushed, p.Dropped+p.Sampled+p.BurstShed+p.QuotaShed, perTenant)
		}
	}
	if st.PublishedRefs != tenants*perTenant {
		t.Errorf("service published %d, want %d", st.PublishedRefs, tenants*perTenant)
	}
}

// TestServiceEvictionRacesPublish hammers a deliberately tiny registry so
// publishes race LRU evictions: every response must be a clean 200 or a 410
// (evicted mid-publish), the service-level books must cover exactly the 200s,
// and Close must reap every async eviction close without leaking.
func TestServiceEvictionRacesPublish(t *testing.T) {
	const (
		keys    = 16
		clients = 32
		rounds  = 6
	)
	svc, err := NewService(ServiceConfig{MaxTenants: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	var ok200, gone410 atomic.Uint64
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tenant := fmt.Sprintf("churn-%02d", (ci+r)%keys)
				resp := postTrace(t, srv.Client(), srv.URL, tenant, uint64(ci), makeRefs(uint64(ci), 200))
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusGone:
					gone410.Add(1)
				default:
					t.Errorf("unexpected status %s", resp.Status)
				}
			}
		}(ci)
	}
	wg.Wait()
	if ok200.Load() == 0 {
		t.Fatal("no publish succeeded under churn")
	}
	st := svc.Stats()
	if st.Evictions == 0 {
		t.Fatal("registry churn produced no evictions (test lost its race shape)")
	}
	if st.Publishes != ok200.Load() {
		t.Errorf("service publishes %d != 200-responses %d", st.Publishes, ok200.Load())
	}
	// Surviving tenants' books still balance.
	for _, ts := range st.Tenants {
		reconcile(t, ts)
	}
	svc.Close() // waits for every async eviction close
	if got := svc.TenantCount(); got != 0 {
		t.Fatalf("tenants after Close = %d", got)
	}
	t.Logf("eviction race: %d ok, %d gone, %d evictions", ok200.Load(), gone410.Load(), st.Evictions)
}

// TestServiceLoadE2E is the acceptance load test: >= 1000 concurrent clients
// across >= 16 tenants publishing through real HTTP, with exact per-tenant
// reconciliation afterwards. Connections are pooled below the fd limit; the
// concurrency is in the 1000 client goroutines.
func TestServiceLoadE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short")
	}
	const (
		tenants   = 16
		clients   = 1000
		batchRefs = 200
		batches   = 2
	)
	svc, err := NewService(ServiceConfig{
		MaxTenants: tenants,
		Tenant:     ShardedConfig{Shards: 2, MaxGrammarSymbols: 2048, AnalysisWorkers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 64, MaxIdleConnsPerHost: 64}}

	var wg sync.WaitGroup
	var produced [tenants]atomic.Uint64
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			ti := ci % tenants
			tenant := fmt.Sprintf("fleet-%02d", ti)
			for b := 0; b < batches; b++ {
				resp := postTrace(t, client, srv.URL, tenant, uint64(ci), makeRefs(uint64(ci), batchRefs))
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: %s", ci, resp.Status)
					return
				}
				produced[ti].Add(batchRefs)
			}
		}(ci)
	}
	wg.Wait()

	st := svc.Stats()
	if st.TenantCount != tenants {
		t.Fatalf("tenant count = %d, want %d", st.TenantCount, tenants)
	}
	var total uint64
	for _, ts := range st.Tenants {
		reconcile(t, ts)
		var ti int
		if _, err := fmt.Sscanf(ts.Key, "fleet-%d", &ti); err != nil {
			t.Fatalf("unexpected tenant %q", ts.Key)
		}
		want := produced[ti].Load()
		if ts.PublishedRefs != want {
			t.Errorf("tenant %s: published %d, clients produced %d", ts.Key, ts.PublishedRefs, want)
		}
		if ts.Profile.Pushed != want {
			t.Errorf("tenant %s: pushed %d, want %d (Block policy sheds nothing)", ts.Key, ts.Profile.Pushed, want)
		}
		total += ts.PublishedRefs
	}
	if want := uint64(clients * batches * batchRefs); total != want {
		t.Errorf("fleet total %d refs, want %d", total, want)
	}
	t.Logf("load: %d clients x %d batches x %d refs across %d tenants, %d refs ingested",
		clients, batches, batchRefs, tenants, total)
}

// TestServiceMetricsCardinalityBound pins the label-cardinality contract:
// with more tenants than MetricsTenants, only the busiest get their own
// series and the rest alias tenant="_other" — including any real tenant
// named "_other".
func TestServiceMetricsCardinalityBound(t *testing.T) {
	svc, err := NewService(ServiceConfig{MetricsTenants: 2, MaxTenants: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Publish volumes: big > mid > the tail (small, _other).
	for _, pub := range []struct {
		key string
		n   int
	}{{"big", 3000}, {"mid", 2000}, {"small", 500}, {"_other", 400}} {
		resp := postTrace(t, srv.Client(), srv.URL, pub.key, 1, makeRefs(1, pub.n))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("publish %s: %s", pub.key, resp.Status)
		}
	}
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(metrics)
	for _, want := range []string{
		`hotprefetch_tenant_published_refs_total{tenant="big"} 3000`,
		`hotprefetch_tenant_published_refs_total{tenant="mid"} 2000`,
		`hotprefetch_tenant_published_refs_total{tenant="_other"} 900`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(text, `tenant="small"`) {
		t.Error("tail tenant got its own label series despite the cardinality bound")
	}
}

// TestServiceIngestSteadyStateAllocs: with the decode pool warm, a publish
// allocates the same whatever the size of its body — the decoder, its
// window and the chunk come from the pool, and Next allocates nothing — so
// what an upload allocates is its request's fixed cost. The tenant's
// one-reference quota is spent by the warm-up publish, so every measured
// reference is shed at the producer boundary and no consumer work adds
// allocations of its own.
func TestServiceIngestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping under -race")
	}
	svc, err := NewService(ServiceConfig{Tenant: ShardedConfig{Shards: 1, RefQuota: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	handler := svc.Handler()
	perPublish := func(n int) float64 {
		body := encodeTrace(t, makeRefs(1, n))
		publish := func() {
			req := httptest.NewRequest(http.MethodPost, "/ingest?tenant=allocs&stream=1", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("ingest of %d refs: %d %s", n, rec.Code, rec.Body)
			}
		}
		publish()
		return testing.AllocsPerRun(50, publish)
	}
	small, large := perPublish(publishChunk), perPublish(8*publishChunk)
	if small != large {
		t.Errorf("a publish allocates %v times with %d refs and %v with %d; want the same",
			small, publishChunk, large, 8*publishChunk)
	}
}
