package hotprefetch

// Service benchmarks for the networked multi-tenant ingest path: one publish
// request end to end (streaming decode through PublishBatch into a tenant's
// shard rings), sequentially and with concurrent tenants. Handler-level —
// httptest.NewRequest into Service.Handler, no TCP — so the numbers isolate
// the service's own cost and stay stable on CI machines.
//
//	go test -bench='ServiceIngest' -benchmem .
//
// Medians of 3 runs are recorded in BENCH_service.json; the headline is
// sustained ingest cost per reference (refs-ns/op metric).

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hotprefetch/internal/ref"
	"hotprefetch/internal/tracefile"
)

// benchBody frames n walk references once; benchmarks re-read the bytes.
func benchBody(b *testing.B, stream uint64, n int) []byte {
	b.Helper()
	refs := make([]ref.Ref, n)
	for i := range refs {
		refs[i] = ref.Ref{PC: int(stream%31) + i%7, Addr: stream<<20 + uint64(i%64)*8}
	}
	var buf bytes.Buffer
	if err := tracefile.Write(&buf, refs); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// reportCPU reports the process CPU time used since cpu0, per operation, as
// cpu-ns/op: with the shard consumer and any waiting publisher included, it
// shows what a wait costs, which ns/op cannot.
func reportCPU(b *testing.B, cpu0 time.Duration) {
	if cpu := processCPU(b) - cpu0; cpu > 0 {
		b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N), "cpu-ns/op")
	}
}

// BenchmarkServiceIngest measures one publish request — 2048 references
// streaming-decoded and routed to the tenant's shard — through the full
// handler, sequentially on one tenant.
func BenchmarkServiceIngest(b *testing.B) {
	svc, err := NewService(ServiceConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	handler := svc.Handler()
	const refsPerPublish = 2048
	body := benchBody(b, 1, refsPerPublish)
	b.ReportAllocs()
	b.ResetTimer()
	cpu0 := processCPU(b)
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/ingest?tenant=bench&stream=1", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("ingest: %d %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	reportCPU(b, cpu0)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*refsPerPublish), "refs-ns/op")
}

// BenchmarkServiceIngestParallel is the fleet shape: concurrent publishers
// spread across 16 tenants, each on its own stream, contending on the
// registry's read path and their tenants' producer locks.
func BenchmarkServiceIngestParallel(b *testing.B) {
	svc, err := NewService(ServiceConfig{MaxTenants: 16, Tenant: ShardedConfig{Shards: 4}})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	handler := svc.Handler()
	const refsPerPublish = 2048
	body := benchBody(b, 2, refsPerPublish)
	var nextClient atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	cpu0 := processCPU(b)
	b.RunParallel(func(pb *testing.PB) {
		ci := nextClient.Add(1)
		url := fmt.Sprintf("/ingest?tenant=bench-%02d&stream=%d", ci%16, ci)
		for pb.Next() {
			req := httptest.NewRequest("POST", url, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatalf("ingest: %d %s", rec.Code, rec.Body)
			}
		}
	})
	b.StopTimer()
	reportCPU(b, cpu0)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*refsPerPublish), "refs-ns/op")
	// Aggregate throughput across all publishers — the capacity-planning
	// number: how many references per second one service instance absorbs.
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*refsPerPublish)/sec, "refs/s")
	}
}
