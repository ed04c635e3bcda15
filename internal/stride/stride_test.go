package stride

import (
	"reflect"
	"testing"

	"hotprefetch/internal/ref"
)

// cfg4 is a small deterministic geometry for tests: 256 B pages, 16 B
// blocks (16 blocks per page), 4-entry table.
func cfg4() Config {
	return Config{Entries: 4, PageBits: 8, BlockBits: 4, Degree: 2, MaxConf: 3, Threshold: 2}
}

func seq(addrs ...uint64) []ref.Ref {
	rs := make([]ref.Ref, len(addrs))
	for i, a := range addrs {
		rs[i] = ref.Ref{PC: i, Addr: a}
	}
	return rs
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Entries: -1},
		{PageBits: 4, BlockBits: 6},
		{PageBits: 40},
		{Degree: -3},
		{Threshold: 5, MaxConf: 2},
		{Threshold: -1, MaxConf: -1},
	}
	for _, cfg := range cases {
		if _, err := New(nil, cfg); err == nil {
			t.Errorf("New(%+v): expected config error", cfg)
		}
	}
	if _, err := New(nil, Config{}); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

func TestUntrainedIsPassThrough(t *testing.T) {
	p, err := New(nil, cfg4())
	if err != nil {
		t.Fatal(err)
	}
	if p.Trained() {
		t.Fatal("empty training set reported trained")
	}
	for i := uint64(0); i < 8; i++ {
		pf, cmp := p.Observe(ref.Ref{Addr: i * 0x10})
		if pf != nil || cmp != 0 {
			t.Fatalf("untrained Observe = (%v,%d), want (nil,0)", pf, cmp)
		}
	}
	if p.Live() != 0 {
		t.Fatalf("untrained table has %d live entries", p.Live())
	}
}

// train returns a predictor seeded with one minimal stream (two refs on a
// far-away page) purely to flip it into trained mode with predictable
// table contents.
func train(t *testing.T, cfg Config) *Predictor {
	t.Helper()
	p, err := New([]ref.Stream{{Refs: seq(0xff00, 0xff10), Heat: 1}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAscendingStreamPrefetches(t *testing.T) {
	p := train(t, cfg4())
	// Walk page 0 upward: blocks 0,1,2,... The first touch installs the
	// entry, the second sets dir with conf 1, the third reaches the
	// threshold and issues.
	var pf []uint64
	var cmp int
	for b := uint64(0); b < 4; b++ {
		pf, cmp = p.Observe(ref.Ref{Addr: b * 0x10})
	}
	if want := []uint64{0x40, 0x50}; !reflect.DeepEqual(pf, want) {
		t.Fatalf("ascending walk predicted %v, want %v", pf, want)
	}
	if cmp < 1 {
		t.Fatalf("comparisons %d < 1", cmp)
	}
}

func TestDescendingStreamPrefetches(t *testing.T) {
	p := train(t, cfg4())
	var pf []uint64
	for b := int64(9); b >= 6; b-- {
		pf, _ = p.Observe(ref.Ref{Addr: uint64(b) * 0x10})
	}
	if want := []uint64{0x50, 0x40}; !reflect.DeepEqual(pf, want) {
		t.Fatalf("descending walk predicted %v, want %v", pf, want)
	}
}

func TestPageBoundaryStopsIssue(t *testing.T) {
	p := train(t, cfg4())
	// Walk up to the last block of page 0 (block 15): degree 2 would want
	// blocks 16,17 — both beyond the page, so nothing issues; block 14
	// still has one in-page successor.
	var pf []uint64
	for b := uint64(10); b <= 14; b++ {
		pf, _ = p.Observe(ref.Ref{Addr: b * 0x10})
	}
	if want := []uint64{0xf0}; !reflect.DeepEqual(pf, want) {
		t.Fatalf("at block 14 predicted %v, want %v (clipped to page)", pf, want)
	}
	pf, _ = p.Observe(ref.Ref{Addr: 15 * 0x10})
	if pf != nil {
		t.Fatalf("at page-final block predicted %v, want none", pf)
	}
}

func TestDirectionFlipRequiresDecay(t *testing.T) {
	p := train(t, cfg4())
	// Build an up-stream at full confidence, then reverse: the first two
	// down-steps only decay confidence (no issue), the flip then rebuilds
	// credit in the new direction before issuing again.
	for b := uint64(0); b < 6; b++ {
		p.Observe(ref.Ref{Addr: b * 0x10})
	}
	sawQuiet := 0
	var atBlock1 []uint64
	for b := int64(4); b >= 0; b-- {
		pf, _ := p.Observe(ref.Ref{Addr: uint64(b) * 0x10})
		if pf == nil {
			sawQuiet++
		}
		if b == 1 {
			atBlock1 = append([]uint64(nil), pf...)
		}
	}
	if sawQuiet == 0 {
		t.Fatal("direction flip issued immediately; expected a decay gap")
	}
	if want := []uint64{0x00}; !reflect.DeepEqual(atBlock1, want) {
		t.Fatalf("after flip, at block 1 predicted %v, want %v", atBlock1, want)
	}
}

func TestSameBlockTouchKeepsConfidence(t *testing.T) {
	p := train(t, cfg4())
	for _, a := range []uint64{0x00, 0x10, 0x20} {
		p.Observe(ref.Ref{Addr: a})
	}
	// Re-touching block 2 is a zero stride: no direction change, no decay.
	if pf, _ := p.Observe(ref.Ref{Addr: 0x28}); pf == nil {
		t.Fatal("zero-stride touch lost stream confidence")
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := cfg4()
	cfg.Entries = 2
	p := train(t, cfg) // seed occupies one slot with page 0xff
	// Touch page 1 (fills slot 2), then page 2: the seed page 0xff is LRU
	// and must be the victim; page 1 survives.
	p.Observe(ref.Ref{Addr: 1 << 8})
	p.Observe(ref.Ref{Addr: 2 << 8})
	if p.Live() != 2 {
		t.Fatalf("Live() = %d, want 2", p.Live())
	}
	// Rebuild page 1's stream: if it survived, two more touches reach the
	// threshold; a re-installed entry would still be direction-less.
	p.Observe(ref.Ref{Addr: 1<<8 | 0x10})
	pf, _ := p.Observe(ref.Ref{Addr: 1<<8 | 0x20})
	if pf == nil {
		t.Fatal("page 1 was evicted; expected the LRU seed page to go")
	}
}

func TestComparisonsTrackOccupancy(t *testing.T) {
	p := train(t, cfg4())
	_, cmp := p.Observe(ref.Ref{Addr: 0x00}) // miss past 1 valid entry
	if cmp != 1 {
		t.Fatalf("miss over 1-entry table cost %d comparisons, want 1", cmp)
	}
	_, cmp = p.Observe(ref.Ref{Addr: 1 << 8}) // miss past 2 valid entries
	if cmp != 2 {
		t.Fatalf("miss over 2-entry table cost %d, want 2", cmp)
	}
	_, cmp = p.Observe(ref.Ref{Addr: 0x10}) // hit on first slot: probes stop
	if cmp > 3 {
		t.Fatalf("hit cost %d comparisons, want <= table occupancy", cmp)
	}
}

func TestResetRestoresPostTrainState(t *testing.T) {
	p, err := New([]ref.Stream{{Refs: seq(0x00, 0x10, 0x20, 0x30), Heat: 2}}, cfg4())
	if err != nil {
		t.Fatal(err)
	}
	run := func() [][]uint64 {
		var out [][]uint64
		for _, a := range []uint64{0x40, 0x50, 0x300, 0x60} {
			pf, _ := p.Observe(ref.Ref{Addr: a})
			out = append(out, append([]uint64(nil), pf...))
		}
		return out
	}
	first := run()
	p.Reset()
	if second := run(); !reflect.DeepEqual(first, second) {
		t.Fatalf("replay after Reset diverged:\n first %v\nsecond %v", first, second)
	}
	if !p.Trained() {
		t.Fatal("Reset cleared trained state")
	}
}

func TestSeededStreamIssuesImmediately(t *testing.T) {
	// Seeding replays the hot stream: the very first post-training touch
	// that extends it should issue without re-warming confidence.
	p, err := New([]ref.Stream{{Refs: seq(0x00, 0x10, 0x20, 0x30), Heat: 2}}, cfg4())
	if err != nil {
		t.Fatal(err)
	}
	pf, _ := p.Observe(ref.Ref{Addr: 0x40})
	if want := []uint64{0x50, 0x60}; !reflect.DeepEqual(pf, want) {
		t.Fatalf("first touch after seeding predicted %v, want %v", pf, want)
	}
}

func TestObserveAllocFree(t *testing.T) {
	p, err := New([]ref.Stream{{Refs: seq(0x00, 0x10, 0x20, 0x30), Heat: 2}}, cfg4())
	if err != nil {
		t.Fatal(err)
	}
	trace := []ref.Ref{{Addr: 0x40}, {Addr: 0x50}, {Addr: 0x500}, {Addr: 0x60}}
	allocs := testing.AllocsPerRun(100, func() {
		for _, r := range trace {
			p.Observe(r)
		}
	})
	if allocs != 0 {
		t.Fatalf("Observe allocated %.1f times per trace", allocs)
	}
}
