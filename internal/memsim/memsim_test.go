package memsim

import (
	"testing"
	"testing/quick"

	"hotprefetch/internal/ref"
)

// smallConfig is a tiny hierarchy that makes eviction behaviour easy to
// exercise: L1 = 4 sets x 2 ways, L2 = 8 sets x 2 ways, 32-byte blocks.
func smallConfig() Config {
	return Config{
		BlockSize:    32,
		L1Size:       256,
		L1Assoc:      2,
		L2Size:       512,
		L2Assoc:      2,
		L2HitLatency: 10,
		MemLatency:   100,
	}
}

func TestDefaultConfigMatchesPaperGeometry(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.L1Size != 16<<10 || cfg.L1Assoc != 4 {
		t.Errorf("L1 geometry = %d bytes %d-way, want 16KB 4-way", cfg.L1Size, cfg.L1Assoc)
	}
	if cfg.L2Size != 256<<10 || cfg.L2Assoc != 8 {
		t.Errorf("L2 geometry = %d bytes %d-way, want 256KB 8-way", cfg.L2Size, cfg.L2Assoc)
	}
	if cfg.BlockSize != 32 {
		t.Errorf("BlockSize = %d, want 32", cfg.BlockSize)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []Config{
		{BlockSize: 0, L1Size: 64, L1Assoc: 1, L2Size: 128, L2Assoc: 1},
		{BlockSize: 48, L1Size: 64, L1Assoc: 1, L2Size: 128, L2Assoc: 1},  // not power of two
		{BlockSize: 32, L1Size: 100, L1Assoc: 1, L2Size: 128, L2Assoc: 1}, // not power of two
		{BlockSize: 32, L1Size: 64, L1Assoc: 0, L2Size: 128, L2Assoc: 1},
		{BlockSize: 32, L1Size: 32, L1Assoc: 4, L2Size: 128, L2Assoc: 1},             // zero sets
		{BlockSize: 32, L1Size: 16 << 10, L1Assoc: 3, L2Size: 256 << 10, L2Assoc: 8}, // 170 L1 sets
		{BlockSize: 32, L1Size: 16 << 10, L1Assoc: 4, L2Size: 256 << 10, L2Assoc: 6}, // 1365 L2 sets
		{BlockSize: 32, L1Size: 256, L1Assoc: 3, L2Size: 512, L2Assoc: 2},            // 2 sets of 3 ways hold 192 of 256 bytes
		{BlockSize: 1, L1Size: 2, L1Assoc: 1, L2Size: 64, L2Assoc: 4},                // L1 ways span 2 bytes
		{BlockSize: 2, L1Size: 16, L1Assoc: 2, L2Size: 4, L2Assoc: 2},                // L2 ways span 2 bytes
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate() = nil, want error", i)
		}
	}
	// The smallest ways that leave a tag room for its flags span 4 bytes.
	if err := (Config{BlockSize: 1, L1Size: 4, L1Assoc: 1, L2Size: 8, L2Assoc: 2}).Validate(); err != nil {
		t.Errorf("4-byte ways: Validate() = %v, want nil", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := New(smallConfig())
	if stall := h.Access(0, 1, 0x1000, false); stall != 100 {
		t.Errorf("cold miss stall = %d, want 100 (memory latency)", stall)
	}
	if stall := h.Access(1, 1, 0x1000, false); stall != 0 {
		t.Errorf("hit stall = %d, want 0", stall)
	}
	// Same block, different word.
	if stall := h.Access(2, 1, 0x1010, false); stall != 0 {
		t.Errorf("same-block hit stall = %d, want 0", stall)
	}
	st := h.Stats()
	if st.L1Misses != 1 || st.L1Hits != 2 || st.L2Misses != 1 {
		t.Errorf("stats = %+v, want 1 L1 miss, 2 L1 hits, 1 L2 miss", st)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	cfg := smallConfig()
	h := New(cfg)
	// L1 has 4 sets x 2 ways. Blocks mapping to the same L1 set are
	// BlockSize*NumSets = 128 bytes apart. Fill one set with 3 distinct
	// blocks to evict the first.
	base := uint64(0x0)
	h.Access(0, 1, base, false)
	h.Access(1, 1, base+128, false)
	h.Access(2, 1, base+256, false) // evicts base from L1
	if h.Contains(1, base) {
		t.Fatal("block should have been evicted from L1")
	}
	if !h.Contains(2, base) {
		t.Fatal("block should still be in L2")
	}
	if stall := h.Access(3, 1, base, false); stall != cfg.L2HitLatency {
		t.Errorf("L2 hit stall = %d, want %d", stall, cfg.L2HitLatency)
	}
	if st := h.Stats(); st.L2Hits != 1 {
		t.Errorf("L2Hits = %d, want 1", st.L2Hits)
	}
}

func TestLRUOrderWithinSet(t *testing.T) {
	h := New(smallConfig())
	// Three blocks in the same L1 set (2 ways): a, b, then touch a, then c.
	// b is LRU and must be evicted; a must survive.
	a, b, c := uint64(0), uint64(128), uint64(256)
	h.Access(0, 1, a, false)
	h.Access(1, 1, b, false)
	h.Access(2, 1, a, false) // promote a to MRU
	h.Access(3, 1, c, false) // evicts b
	if !h.Contains(1, a) {
		t.Error("a should have been retained (MRU)")
	}
	if h.Contains(1, b) {
		t.Error("b should have been evicted (LRU)")
	}
	if !h.Contains(1, c) {
		t.Error("c should be resident")
	}
}

func TestPrefetchFillsBothLevels(t *testing.T) {
	h := New(smallConfig())
	h.Prefetch(0, 0x2000)
	if !h.Contains(1, 0x2000) || !h.Contains(2, 0x2000) {
		t.Fatal("prefetch must fill both levels (prefetcht0 semantics)")
	}
	st := h.Stats()
	if st.Prefetches != 1 {
		t.Errorf("Prefetches = %d, want 1", st.Prefetches)
	}
}

func TestPrefetchTimeliness(t *testing.T) {
	cfg := smallConfig()
	h := New(cfg)

	// Timely: access happens after the fill latency has fully elapsed.
	h.Prefetch(0, 0x2000)
	if stall := h.Access(200, 1, 0x2000, false); stall != 0 {
		t.Errorf("timely prefetched access stall = %d, want 0", stall)
	}

	// Late: access arrives 40 cycles after issue; fill takes 100.
	h.Prefetch(1000, 0x4000)
	if stall := h.Access(1040, 1, 0x4000, false); stall != 60 {
		t.Errorf("late prefetched access stall = %d, want 60 (remaining latency)", stall)
	}

	st := h.Stats()
	if st.UsefulPrefetches != 2 {
		t.Errorf("UsefulPrefetches = %d, want 2", st.UsefulPrefetches)
	}
	if st.LatePrefetches != 1 || st.LateStallCycles != 60 {
		t.Errorf("late stats = %d/%d, want 1/60", st.LatePrefetches, st.LateStallCycles)
	}
}

func TestPrefetchFromL2IsFast(t *testing.T) {
	cfg := smallConfig()
	h := New(cfg)
	// Load the block, then evict it from L1 but not L2.
	h.Access(0, 1, 0, false)
	h.Access(1, 1, 128, false)
	h.Access(2, 1, 256, false)
	if h.Contains(1, 0) || !h.Contains(2, 0) {
		t.Fatal("setup failed: block should be in L2 only")
	}
	h.Prefetch(10, 0)
	// Fill from L2 takes only L2HitLatency; by cycle 10+10 it is ready.
	if stall := h.Access(25, 1, 0, false); stall != 0 {
		t.Errorf("stall = %d, want 0 (L2-sourced prefetch ready)", stall)
	}
}

func TestPrefetchDuplicateIsCheap(t *testing.T) {
	h := New(smallConfig())
	h.Access(0, 1, 0x2000, false)
	h.Prefetch(1, 0x2000)
	st := h.Stats()
	if st.PrefetchDupes != 1 {
		t.Errorf("PrefetchDupes = %d, want 1", st.PrefetchDupes)
	}
}

func TestUselessPrefetchEvictionCounted(t *testing.T) {
	h := New(smallConfig())
	// Prefetch a block, never touch it, then push two demand blocks through
	// the same L1 set to evict it.
	h.Prefetch(0, 0)
	h.Access(1, 1, 128, false)
	h.Access(2, 1, 256, false)
	if st := h.Stats(); st.PrefetchEvictions != 1 {
		t.Errorf("PrefetchEvictions = %d, want 1", st.PrefetchEvictions)
	}
}

func TestStoresCountedSeparately(t *testing.T) {
	h := New(smallConfig())
	h.Access(0, 1, 0, true)
	h.Access(1, 1, 0, false)
	st := h.Stats()
	if st.Stores != 1 || st.Loads != 1 {
		t.Errorf("loads/stores = %d/%d, want 1/1", st.Loads, st.Stores)
	}
	if st.Accesses() != 2 {
		t.Errorf("Accesses() = %d, want 2", st.Accesses())
	}
}

func TestMissRatio(t *testing.T) {
	h := New(smallConfig())
	h.Access(0, 1, 0, false) // miss
	h.Access(1, 1, 0, false) // hit
	h.Access(2, 1, 0, false) // hit
	h.Access(3, 1, 0, false) // hit
	st := h.Stats()
	if got := st.MissRatio(); got != 0.25 {
		t.Errorf("MissRatio = %v, want 0.25", got)
	}
	var empty Stats
	if empty.MissRatio() != 0 {
		t.Error("MissRatio of empty stats should be 0")
	}
}

func TestReset(t *testing.T) {
	h := New(smallConfig())
	h.Access(0, 1, 0, false)
	h.Prefetch(1, 128)
	h.Reset()
	if h.Contains(1, 0) || h.Contains(2, 0) {
		t.Error("Reset must invalidate cache contents")
	}
	if st := h.Stats(); st != (Stats{}) {
		t.Errorf("Reset must clear stats, got %+v", st)
	}
	// A post-reset access is a cold miss again.
	if stall := h.Access(10, 1, 0, false); stall != 100 {
		t.Errorf("post-reset stall = %d, want 100", stall)
	}
}

type recordingObserver struct {
	n      int
	lastPC int
	l1Hit  bool
}

func (r *recordingObserver) OnAccess(now uint64, pc int, addr uint64, l1Hit, l2Hit bool) {
	r.n++
	r.lastPC = pc
	r.l1Hit = l1Hit
}

func TestObserverNotified(t *testing.T) {
	h := New(smallConfig())
	obs := &recordingObserver{}
	h.SetObserver(obs)
	h.Access(0, 42, 0x100, false)
	if obs.n != 1 || obs.lastPC != 42 || obs.l1Hit {
		t.Errorf("observer saw n=%d pc=%d l1Hit=%v, want 1/42/false", obs.n, obs.lastPC, obs.l1Hit)
	}
	h.Access(1, 43, 0x100, false)
	if obs.n != 2 || !obs.l1Hit {
		t.Errorf("observer saw n=%d l1Hit=%v, want 2/true", obs.n, obs.l1Hit)
	}
	h.SetObserver(nil)
	h.Access(2, 44, 0x100, false)
	if obs.n != 2 {
		t.Error("detached observer must not be notified")
	}
}

// Property: the cache never stalls a second consecutive access to the same
// address, and total stall cycles equal the sum of per-access stalls.
func TestPropertyRepeatAccessHits(t *testing.T) {
	f := func(addrs []uint16) bool {
		h := New(smallConfig())
		var now uint64
		var sum uint64
		for _, a16 := range addrs {
			addr := uint64(a16)
			s1 := h.Access(now, 1, addr, false)
			now += 1 + s1
			s2 := h.Access(now, 1, addr, false)
			now += 1 + s2
			sum += s1 + s2
			if s2 != 0 {
				return false
			}
		}
		return h.Stats().StallCycles == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: working sets that fit in L1 never miss after the first touch,
// regardless of access order.
func TestPropertySmallWorkingSetStaysResident(t *testing.T) {
	cfg := smallConfig() // L1 = 8 blocks
	f := func(order []uint8) bool {
		h := New(cfg)
		// Working set: 4 blocks, all mapping to distinct sets.
		blocks := []uint64{0, 32, 64, 96}
		for _, b := range blocks {
			h.Access(0, 1, b, false)
		}
		for i, o := range order {
			if s := h.Access(uint64(i), 1, blocks[int(o)%len(blocks)], false); s != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: hit+miss counters always sum to the number of demand accesses.
func TestPropertyCountersConsistent(t *testing.T) {
	f := func(addrs []uint32, writes []bool) bool {
		h := New(smallConfig())
		n := len(addrs)
		if len(writes) < n {
			n = len(writes)
		}
		for i := 0; i < n; i++ {
			h.Access(uint64(i), i, uint64(addrs[i]), writes[i])
		}
		st := h.Stats()
		if st.L1Hits+st.L1Misses != uint64(n) {
			return false
		}
		if st.L2Hits+st.L2Misses != st.L1Misses {
			return false
		}
		return st.Accesses() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	h := New(DefaultConfig())
	h.Access(0, 1, 0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i), 1, 0, false)
	}
}

func BenchmarkAccessMissStream(b *testing.B) {
	h := New(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stride through far more memory than L2 so most accesses miss.
		h.Access(uint64(i), 1, uint64(i)*64%(64<<20), false)
	}
}

func BenchmarkPrefetch(b *testing.B) {
	h := New(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Prefetch(uint64(i), uint64(i)*32%(64<<20))
	}
}

func TestMaxInflightDropsExcessPrefetches(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxInflight = 2
	h := New(cfg)
	// Three simultaneous prefetch fills: the third must be dropped.
	h.Prefetch(0, 0x10000)
	h.Prefetch(0, 0x20000)
	h.Prefetch(0, 0x30000)
	st := h.Stats()
	if st.PrefetchDrops != 1 {
		t.Fatalf("PrefetchDrops = %d, want 1", st.PrefetchDrops)
	}
	if h.Contains(1, 0x30000) {
		t.Error("dropped prefetch must not install a line")
	}
	// After the fills complete, capacity frees up again.
	h.Prefetch(500, 0x40000)
	if st := h.Stats(); st.PrefetchDrops != 1 {
		t.Errorf("PrefetchDrops = %d after reclaim, want still 1", st.PrefetchDrops)
	}
	if !h.Contains(1, 0x40000) {
		t.Error("post-reclaim prefetch should succeed")
	}
}

func TestMaxInflightZeroIsUnlimited(t *testing.T) {
	h := New(smallConfig())
	for i := 0; i < 100; i++ {
		h.Prefetch(0, uint64(0x10000+i*4096))
	}
	if st := h.Stats(); st.PrefetchDrops != 0 {
		t.Errorf("unlimited config dropped %d prefetches", st.PrefetchDrops)
	}
}

// scripted is a stub Detector: each reference costs its pc in comparisons
// and prefetches the addresses listed under its address.
type scripted map[uint64][]uint64

func (s scripted) Observe(r ref.Ref) ([]uint64, int) { return s[r.Addr], r.PC }

// replayTrace is a small trace that misses, hits and evicts on smallConfig.
func replayTrace() []ref.Ref {
	var trace []ref.Ref
	for i := 0; i < 200; i++ {
		trace = append(trace, ref.Ref{PC: i % 4, Addr: uint64(i*37%23) * 32})
	}
	return trace
}

func TestReplayChargesAccessStallAndComparisons(t *testing.T) {
	h := New(smallConfig())
	trace := replayTrace()
	end, cmp := Replay(h, 0, trace, scripted{})
	var want uint64
	for _, r := range trace {
		want += uint64(r.PC)
	}
	if cmp != want {
		t.Fatalf("comparisons = %d, want %d (the sum the detector reported)", cmp, want)
	}
	st := h.Stats()
	if end != st.Accesses()+st.StallCycles+cmp {
		t.Fatalf("end cycle %d, want accesses %d + stalls %d + comparisons %d",
			end, st.Accesses(), st.StallCycles, cmp)
	}
}

func TestReplayPrefetchIssuesAfterCharge(t *testing.T) {
	// The first reference misses to memory (cycle 0 → 101), its detection
	// code charges 5 comparisons (→ 106), and the prefetch of the second
	// block issues at cycle 106. The second reference arrives at 106 too,
	// so it waits out the whole fill: had the prefetch issued before the
	// charge, it would wait 5 cycles less.
	h := New(smallConfig())
	a, b := uint64(0x1000), uint64(0x2000)
	end, cmp := Replay(h, 0, []ref.Ref{{PC: 5, Addr: a}, {PC: 0, Addr: b}}, scripted{a: {b}})
	st := h.Stats()
	if cmp != 5 || st.Prefetches != 1 || st.LatePrefetches != 1 {
		t.Fatalf("comparisons %d, prefetches %d, late %d; want 5, 1, 1", cmp, st.Prefetches, st.LatePrefetches)
	}
	if st.LateStallCycles != 100 {
		t.Fatalf("late stall = %d cycles, want 100 (prefetch issued at the cycle after the charge)", st.LateStallCycles)
	}
	if end != 101+5+1+100 {
		t.Fatalf("end cycle = %d, want %d", end, 101+5+1+100)
	}
}

// free is a detector with no detection code anywhere.
type free struct{}

func (free) Observe(ref.Ref) ([]uint64, int) { return nil, 0 }

func TestReplayFreeDetectorIsNoPrefetchRun(t *testing.T) {
	trace := replayTrace()
	hn, hf := New(smallConfig()), New(smallConfig())
	endN, _ := Replay(hn, 0, trace, nil)
	endF, cmp := Replay(hf, 0, trace, free{})
	if endF != endN || cmp != 0 || hf.Stats() != hn.Stats() {
		t.Fatalf("free detector: end %d, comparisons %d, stats %+v; nil detector: end %d, stats %+v",
			endF, cmp, hf.Stats(), endN, hn.Stats())
	}
	// Replaying in two steps from the first step's end cycle is the same
	// replay as one pass.
	hs := New(smallConfig())
	mid, _ := Replay(hs, 0, trace[:77], nil)
	if end, _ := Replay(hs, mid, trace[77:], nil); end != endN || hs.Stats() != hn.Stats() {
		t.Fatalf("stepped replay ends at %d with %+v, want %d with %+v", end, hs.Stats(), endN, hn.Stats())
	}
}
