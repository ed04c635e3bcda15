//go:build linux

package hotprefetch

import (
	"syscall"
	"testing"
	"time"
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
