//go:build linux

package hotprefetch

import (
	"errors"
	"sync"
	"syscall"
	"testing"
	"time"

	"hotprefetch/internal/fault"
)

// processCPU returns the CPU time the process has used so far.
func processCPU(tb testing.TB) time.Duration {
	tb.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuWindow is how long the CPU tests measure a waiting process.
const cpuWindow = 500 * time.Millisecond

// coresWhileSleeping returns the cores the process uses while the test
// goroutine sleeps for cpuWindow.
func coresWhileSleeping(t *testing.T) float64 {
	t.Helper()
	cpu0, t0 := processCPU(t), time.Now()
	time.Sleep(cpuWindow)
	cores := float64(processCPU(t)-cpu0) / float64(time.Since(t0))
	t.Logf("%.3f cores over %v", cores, cpuWindow)
	return cores
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
		prepass:           true,
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
	if cores := coresWhileSleeping(t); cores > 0.1 {
		t.Errorf("idle profile used %.2f cores over %v, want about 0", cores, cpuWindow)
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
	sp := oneCycleProfile(t, func(int) fault.Outcome { return fault.Outcome{Delay: delay} }, realClock{})
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

// blockedProducer holds s's drain lock, so that its ring stays full, and
// starts publish with more references than the ring holds; it returns once
// the producer sleeps for room. The channel receives publish's error, and
// release lets the consumer drain (also at cleanup, ahead of Close).
func blockedProducer(t *testing.T, s *ProfileShard, publish func([]Ref) error) (res <-chan error, release func()) {
	t.Helper()
	s.drain.Lock()
	release = sync.OnceFunc(s.unlockDrain)
	t.Cleanup(release)
	c := make(chan error, 1)
	go func() { c <- publish(shardTrace(1, ringCap/12)) }()
	eventually(t, "Block producer asleep on a full ring", func() bool { return s.room.n.Load() == 1 })
	return c, release
}

// TestBlockPublishSleepsOnFullRing: a Block AddBatch into a ring that
// stays full sleeps until the consumer pops. A producer that polls the ring
// with scheduler yields uses about one core.
func TestBlockPublishSleepsOnFullRing(t *testing.T) {
	if testing.Short() {
		t.Skip("measures half a second of a blocked producer")
	}
	sp, err := NewShardedProfileConfig(ShardedConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Close)
	s := sp.Shard(0)
	res, release := blockedProducer(t, s, s.AddBatch)
	cores := coresWhileSleeping(t)
	release()
	if err := <-res; err != nil {
		t.Fatal(err)
	}
	if cores > 0.1 {
		t.Errorf("Block producer against a full ring used %.2f cores over %v, want about 0", cores, cpuWindow)
	}
}

// TestPublishBatchSleepsBehindBlockedPublisher: a second PublishBatch to a
// shard whose first publisher is asleep on a full ring sleeps on the
// shard's producer lock. Spinning on that lock with scheduler yields uses
// about one core.
func TestPublishBatchSleepsBehindBlockedPublisher(t *testing.T) {
	if testing.Short() {
		t.Skip("measures half a second of blocked publishers")
	}
	sp, err := NewShardedProfileConfig(ShardedConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Close)
	s := sp.Shard(0)
	publish := func(refs []Ref) error { return sp.PublishBatch(1, refs) }
	first, release := blockedProducer(t, s, publish)
	second := make(chan error, 1)
	go func() { second <- publish(shardTrace(2, 10)) }()
	cores := coresWhileSleeping(t)
	release()
	for _, res := range []<-chan error{first, second} {
		if err := <-res; err != nil {
			t.Fatal(err)
		}
	}
	if cores > 0.1 {
		t.Errorf("two publishers behind a full ring used %.2f cores over %v, want about 0", cores, cpuWindow)
	}
}

// TestFlushSleepsOnHeldDrain: a Flush that finds the drain lock held sleeps
// until the holder makes progress. With the clock standing, the stall
// verdict cannot come while the CPU is measured; once the clock passes
// flushStallTimeout it does. Polling the lock with scheduler yields uses
// about one core.
func TestFlushSleepsOnHeldDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("measures half a second of a waiting Flush")
	}
	sp := newShardedProfile(ShardedConfig{Shards: 1}) // consumers intentionally not started
	clk := newFakeClock()
	sp.clk = clk
	if err := sp.Shard(0).Add(Ref{PC: 1, Addr: 8}); err != nil {
		t.Fatal(err)
	}
	holdDrain(t, sp.Shard(0))
	res := make(chan error, 1)
	go func() { res <- sp.Flush() }()
	clk.awaitTimers(1)
	cores := coresWhileSleeping(t)
	clk.Advance(flushStallTimeout)
	if err := <-res; !errors.Is(err, ErrFlushStalled) {
		t.Fatalf("Flush = %v, want ErrFlushStalled", err)
	}
	if cores > 0.1 {
		t.Errorf("Flush on a held drain lock used %.2f cores over %v, want about 0", cores, cpuWindow)
	}
}
