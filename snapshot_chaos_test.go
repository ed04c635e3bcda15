package hotprefetch

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"hotprefetch/internal/fault"
	"hotprefetch/internal/snapshot"
)

// The chaos matrix: every way a snapshot load can go wrong — truncated at
// any byte, any single bit flipped, version- or flags-skewed — must produce
// a typed format error, count exactly one load failure, leave the profile
// cold but fully usable, and leak no goroutines. Run under -race in CI's
// chaos job. The stale and drifted warm starts (the remaining rows of the
// matrix) are TestSupervisorWarmStartStaleDeoptimizes and
// TestSupervisorWarmStartDriftForgotten in persist_test.go: both deoptimize
// through the ordinary bad-window path.

// settleGoroutines polls until the goroutine count returns to base (small
// slack for runtime background threads), failing if it never does — the
// leak check every chaos scenario runs under.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, started with %d", n, base)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// chaosSnapshot builds one real snapshot encoding to mutate.
func chaosSnapshot(t *testing.T) []byte {
	t.Helper()
	src := cycledProfile(t, 1)
	defer src.Close()
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf, 7); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotChaosMatrix(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	enc := chaosSnapshot(t)
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		cycleAnalysis:     AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	var loads uint64
	mustFail := func(name string, mutated []byte) {
		t.Helper()
		if _, err := sp.RestoreSnapshot(bytes.NewReader(mutated)); !snapshot.IsFormatError(err) {
			t.Fatalf("%s: error = %v, want a typed format error", name, err)
		}
		loads++
	}

	// Truncation at every prefix length: the framing's length commitments
	// mean no strict prefix may ever parse.
	for cut := 0; cut < len(enc); cut++ {
		mustFail("truncate", enc[:cut])
	}

	// Every offset single-bit-flipped once (seeded corruptor picks the bit):
	// magic, version, and flags fail the header check, the section count is
	// fenced by the trailing-bytes rule, and everything else is under a CRC.
	c := fault.NewCorruptor(1)
	for i := 0; i < 2*len(enc); i++ {
		mutated := append([]byte(nil), enc...)
		c.FlipBit(mutated)
		mustFail("bitflip", mutated)
	}
	if c.Flips() == 0 {
		t.Fatal("corruptor flipped nothing")
	}

	// Random truncations on top of the exhaustive sweep, for the corruptor's
	// own coverage accounting.
	for i := 0; i < 32; i++ {
		mutated := append([]byte(nil), enc...)
		mustFail("corruptor-truncate", c.Truncate(mutated))
	}

	// Version and flags skew: a future writer's file is ErrVersion, not a
	// misparse.
	skew := append([]byte(nil), enc...)
	skew[6] = 2
	if _, err := sp.RestoreSnapshot(bytes.NewReader(skew)); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("version skew error = %v, want ErrVersion", err)
	}
	loads++
	skew = append([]byte(nil), enc...)
	skew[7] = 0x80
	if _, err := sp.RestoreSnapshot(bytes.NewReader(skew)); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("flags skew error = %v, want ErrVersion", err)
	}
	loads++

	// The books: one counted load failure per scenario, nothing restored.
	st := sp.Stats()
	if st.SnapshotLoadFailures != loads || st.SnapshotRestores != 0 || st.RestoredStreams != 0 {
		t.Fatalf("after %d corrupt loads: failures %d, restores %d, restored %d",
			loads, st.SnapshotLoadFailures, st.SnapshotRestores, st.RestoredStreams)
	}

	// Cold fallback: the battered profile still profiles from zero, and the
	// pristine bytes still restore — the failures poisoned nothing.
	feedUntilCycle(t, sp, phaseTrace(2, 40), 0)
	if len(sp.BankedStreams(0)) == 0 {
		t.Fatal("no streams banked after corrupt-load barrage")
	}
	fresh := NewShardedProfile(1)
	defer fresh.Close()
	if _, err := fresh.RestoreSnapshot(bytes.NewReader(enc)); err != nil {
		t.Fatalf("pristine snapshot failed to restore: %v", err)
	}

	settleGoroutines(t, baseGoroutines)
}

// TestSnapshotChaosServiceDir drives the same failure classes through the
// service's warm-load path: a directory of damaged snapshot files costs the
// warm starts, never the tenants — every tenant registers cold, ingests,
// and the failures are counted per file.
func TestSnapshotChaosServiceDir(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	enc := chaosSnapshot(t)
	dir := t.TempDir()

	c := fault.NewCorruptor(2)
	flipped := append([]byte(nil), enc...)
	c.FlipBit(flipped)
	skewed := append([]byte(nil), enc...)
	skewed[6] = 9
	damaged := map[string][]byte{
		"truncated.snap": enc[:len(enc)/2],
		"flipped.snap":   flipped,
		"skewed.snap":    skewed,
		"empty.snap":     {},
	}
	for name, body := range damaged {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "intact.snap"), enc, 0o644); err != nil {
		t.Fatal(err)
	}

	svc, err := NewService(snapshotServiceConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	loaded, failed := svc.LoadSnapshots()
	if loaded != 1 || failed != len(damaged) {
		t.Fatalf("LoadSnapshots = %d loaded, %d failed; want 1, %d", loaded, failed, len(damaged))
	}
	st := svc.Stats()
	if st.SnapshotLoads != 1 || st.SnapshotLoadFailures != uint64(len(damaged)) {
		t.Fatalf("service stats: loads %d, failures %d", st.SnapshotLoads, st.SnapshotLoadFailures)
	}
	// Every tenant — damaged files included — registered and profiles cold.
	for name := range damaged {
		key := name[:len(name)-len(".snap")]
		bankCycles(t, svc, key, 1)
	}
	svc.Close()
	settleGoroutines(t, baseGoroutines)
}
