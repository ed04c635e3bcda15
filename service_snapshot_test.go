package hotprefetch

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hotprefetch/internal/snapshot"
)

// snapshotServiceConfig is the tenant template the snapshot tests share: a
// grammar budget so cycles bank streams worth persisting.
func snapshotServiceConfig(dir string) ServiceConfig {
	return ServiceConfig{
		Tenant: ShardedConfig{
			Shards:            1,
			MaxGrammarSymbols: 64,
			cycleAnalysis:     AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05},
		},
		SnapshotDir:      dir,
		SnapshotInterval: -1, // checkpoints driven explicitly by the tests
	}
}

// bankCycles publishes the phase's trace until the tenant banks a cycle.
func bankCycles(t *testing.T, svc *Service, key string, phase int) {
	t.Helper()
	tn, err := svc.Tenant(key)
	if err != nil {
		t.Fatal(err)
	}
	feedUntilCycle(t, tn.Profile(), phaseTrace(phase, 40), tn.Profile().Stats().Resets)
}

// TestServiceSnapshotCheckpointRestore: CheckpointAll writes an atomic
// per-tenant file, and a fresh service over the same directory warm-starts
// the tenant with bit-identical banked streams.
func TestServiceSnapshotCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	svc, err := NewService(snapshotServiceConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	bankCycles(t, svc, "alpha", 1)
	tn, _ := svc.Lookup("alpha")
	want := tn.Profile().BankedStreams(0)
	if len(want) == 0 {
		t.Fatal("no banked streams to checkpoint")
	}
	n, err := svc.CheckpointAll()
	if err != nil || n != 1 {
		t.Fatalf("CheckpointAll = %d, %v", n, err)
	}
	if st := svc.Stats(); st.SnapshotWrites != 1 {
		t.Fatalf("SnapshotWrites = %d, want 1", st.SnapshotWrites)
	}
	if _, err := os.Stat(filepath.Join(dir, "alpha.snap")); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() != "alpha.snap" {
			t.Fatalf("stray file %q in snapshot dir", e.Name())
		}
	}
	svc.Close()

	svc2, err := NewService(snapshotServiceConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	loaded, failed := svc2.LoadSnapshots()
	if loaded != 1 || failed != 0 {
		t.Fatalf("LoadSnapshots = %d loaded, %d failed", loaded, failed)
	}
	tn2, ok := svc2.Lookup("alpha")
	if !ok {
		t.Fatal("warm-started tenant not registered")
	}
	got := tn2.Profile().BankedStreams(0)
	if len(got) != len(want) {
		t.Fatalf("restored %d streams, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Heat != want[i].Heat || len(got[i].Refs) != len(want[i].Refs) {
			t.Fatalf("stream %d diverged: %+v vs %+v", i, got[i], want[i])
		}
	}
	st := svc2.Stats()
	if st.SnapshotLoads != 1 || st.Tenants[0].Generation != 1 {
		t.Fatalf("warm-start stats: loads %d, generation %d", st.SnapshotLoads, st.Tenants[0].Generation)
	}
	// The next checkpoint advances past the restored generation instead of
	// being refused.
	if n, err := svc2.CheckpointAll(); n != 1 || err != nil {
		t.Fatalf("post-restore CheckpointAll = %d, %v", n, err)
	}
	if gen := svc2.Stats().Tenants[0].Generation; gen != 2 {
		t.Fatalf("post-restore generation = %d, want 2", gen)
	}
}

// TestServiceSnapshotGenerationRefusal: a checkpoint never overwrites a
// snapshot file whose header carries a newer generation — it fails with
// ErrSnapshotGeneration, counts the refusal, and leaves the file intact.
func TestServiceSnapshotGenerationRefusal(t *testing.T) {
	dir := t.TempDir()
	svc, err := NewService(snapshotServiceConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	bankCycles(t, svc, "alpha", 1)

	// Another instance owns the file at generation 99.
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, &snapshot.Profile{Generation: 99, CreatedAt: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "alpha.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	n, err := svc.CheckpointAll()
	if n != 0 || !errors.Is(err, ErrSnapshotGeneration) {
		t.Fatalf("CheckpointAll = %d, %v; want 0, ErrSnapshotGeneration", n, err)
	}
	if st := svc.Stats(); st.SnapshotRefused != 1 || st.SnapshotWrites != 0 {
		t.Fatalf("refusal stats: refused %d, writes %d", st.SnapshotRefused, st.SnapshotWrites)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("refused checkpoint modified the file (err %v)", err)
	}
}

// TestServiceSnapshotCorruptFileColdStart: a corrupt snapshot file costs the
// warm start, not the tenant — creation succeeds cold, the load failure is
// counted at both service and profile level, and ingest works.
func TestServiceSnapshotCorruptFileColdStart(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "alpha.snap"), []byte("HDSSNP\x01\x00garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(snapshotServiceConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	loaded, failed := svc.LoadSnapshots()
	if loaded != 0 || failed != 1 {
		t.Fatalf("LoadSnapshots = %d loaded, %d failed", loaded, failed)
	}
	tn, ok := svc.Lookup("alpha")
	if !ok {
		t.Fatal("tenant not registered after corrupt load")
	}
	st := svc.Stats()
	if st.SnapshotLoadFailures != 1 || st.SnapshotLoads != 0 {
		t.Fatalf("corrupt-load stats: failures %d, loads %d", st.SnapshotLoadFailures, st.SnapshotLoads)
	}
	if ps := tn.Profile().Stats(); ps.SnapshotLoadFailures != 1 || ps.RestoredStreams != 0 {
		t.Fatalf("profile stats: failures %d, restored %d", ps.SnapshotLoadFailures, ps.RestoredStreams)
	}
	bankCycles(t, svc, "alpha", 1) // cold profiling still works
}

// TestServiceSnapshotHTTP: GET /snapshot round-trips a tenant's durable
// state through POST /snapshot on a second service; a corrupt POST body is
// a 400 with the loader's typed message.
func TestServiceSnapshotHTTP(t *testing.T) {
	svcA, err := NewService(snapshotServiceConfig("")) // endpoints work dirless
	if err != nil {
		t.Fatal(err)
	}
	defer svcA.Close()
	bankCycles(t, svcA, "alpha", 1)
	tnA, _ := svcA.Lookup("alpha")
	want := tnA.Profile().BankedStreams(0)

	srvA := httptest.NewServer(svcA.Handler())
	defer srvA.Close()
	resp, err := http.Get(srvA.URL + "/snapshot?tenant=alpha")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /snapshot = %d: %s", resp.StatusCode, raw)
	}
	if _, err := snapshot.Read(bytes.NewReader(raw)); err != nil {
		t.Fatalf("GET body is not a valid snapshot: %v", err)
	}

	svcB, err := NewService(snapshotServiceConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer svcB.Close()
	srvB := httptest.NewServer(svcB.Handler())
	defer srvB.Close()
	resp, err = http.Post(srvB.URL+"/snapshot?tenant=alpha", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var res snapshotResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || res.Streams != len(want) {
		t.Fatalf("POST /snapshot = %d, %+v; want %d streams", resp.StatusCode, res, len(want))
	}
	tnB, _ := svcB.Lookup("alpha")
	got := tnB.Profile().BankedStreams(0)
	if len(got) != len(want) {
		t.Fatalf("migrated %d streams, want %d", len(got), len(want))
	}

	// Corrupt upload: 400, typed rejection, tenant state unchanged.
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0x01
	resp, err = http.Post(srvB.URL+"/snapshot?tenant=alpha", "application/octet-stream", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt POST /snapshot = %d: %s", resp.StatusCode, msg)
	}
	if st := svcB.Stats(); st.SnapshotLoadFailures != 1 {
		t.Fatalf("corrupt POST counted %d load failures", st.SnapshotLoadFailures)
	}
	if after := tnB.Profile().BankedStreams(0); len(after) != len(got) {
		t.Fatalf("corrupt POST mutated tenant state: %d streams, want %d", len(after), len(got))
	}
}

// TestServiceSnapshotPeriodicLoop: a positive SnapshotInterval checkpoints
// tenants in the background without any explicit CheckpointAll.
func TestServiceSnapshotPeriodicLoop(t *testing.T) {
	dir := t.TempDir()
	cfg := snapshotServiceConfig(dir)
	cfg.SnapshotInterval = 10 * time.Millisecond
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bankCycles(t, svc, "alpha", 1)
	for i := 0; i < 500 && svc.Stats().SnapshotWrites == 0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if svc.Stats().SnapshotWrites == 0 {
		t.Fatal("periodic loop wrote no checkpoint")
	}
	svc.Close() // must stop the loop without goroutine leak (chaos test verifies globally)
	if _, err := os.Stat(filepath.Join(dir, "alpha.snap")); err != nil {
		t.Fatalf("periodic checkpoint file missing: %v", err)
	}
}
