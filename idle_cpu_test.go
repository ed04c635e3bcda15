//go:build linux

package hotprefetch

import (
	"syscall"
	"testing"
	"time"

	"hotprefetch/internal/fault"
)

// processCPU returns the CPU time the process has used so far.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleProfileUsesNoCPU: a profile with the service's per-tenant shape
// (one shard, a grammar budget, one analysis worker, prepass on) that has
// ingested and gone idle costs no CPU — its consumer sleeps instead of
// polling its empty ring. A polling consumer uses about one core.
func TestIdleProfileUsesNoCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("measures half a second of idle time")
	}
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 4096,
		AnalysisWorkers:   1,
		Prepass:           PrepassOn,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if err := sp.AddBatch(0, shardTrace(1, 500)); err != nil {
		t.Fatal(err)
	}
	if !waitConsumed(sp.Shard(0), 5*time.Second) {
		t.Fatal("consumer never drained its ring")
	}
	const window = 500 * time.Millisecond
	cpu0, t0 := processCPU(t), time.Now()
	time.Sleep(window)
	cores := float64(processCPU(t)-cpu0) / float64(time.Since(t0))
	if cores > 0.1 {
		t.Errorf("idle profile used %.2f cores over %v, want about 0", cores, window)
	}
}

// TestDrainAnalysesSleeps: a HotStreamsErr caller waiting for a slow
// background analysis sleeps until the analysis settles. Polling the
// pending count with scheduler yields costs about one core for the whole
// wait.
func TestDrainAnalysesSleeps(t *testing.T) {
	if testing.Short() {
		t.Skip("waits half a second for a delayed analysis")
	}
	const delay = 500 * time.Millisecond
	sp := oneCycleProfile(t, func(int) fault.Outcome { return fault.Outcome{Delay: delay} }, 0)
	defer sp.Close()
	cpu0, t0 := processCPU(t), time.Now()
	if _, err := sp.HotStreamsErr(DefaultAnalysisConfig()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(t0)
	cores := float64(processCPU(t)-cpu0) / float64(elapsed)
	if elapsed < delay/2 {
		t.Fatalf("HotStreamsErr returned after %v, before the %v analysis could settle", elapsed, delay)
	}
	if got := sp.Stats().CyclesAnalyzed; got != 1 {
		t.Errorf("HotStreamsErr returned with %d cycles analyzed, want 1", got)
	}
	if cores > 0.1 {
		t.Errorf("waiting %v for an analysis used %.2f cores, want about 0", elapsed, cores)
	}
}
