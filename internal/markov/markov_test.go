package markov

import (
	"reflect"
	"testing"

	"hotprefetch/internal/ref"
)

func seq(addrs ...uint64) []ref.Ref {
	rs := make([]ref.Ref, len(addrs))
	for i, a := range addrs {
		rs[i] = ref.Ref{PC: i, Addr: a}
	}
	return rs
}

func observeAddrs(t *testing.T, p *Predictor, addrs ...uint64) (last []uint64, cmp int) {
	t.Helper()
	for _, a := range addrs {
		last, cmp = p.Observe(ref.Ref{Addr: a})
	}
	return last, cmp
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Order: 3},
		{Order: -1},
		{Fanout: -2},
		{MinProb: 1.5},
		{MinProb: -0.1},
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
	p, err := New(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Trained() {
		t.Fatal("empty training set reported trained")
	}
	for i, a := range []uint64{0x100, 0x200, 0x100} {
		pf, cmp := p.Observe(ref.Ref{Addr: a})
		if pf != nil {
			t.Fatalf("ref %d: untrained predictor prefetched %v", i, pf)
		}
		if cmp != 0 {
			t.Fatalf("ref %d: comparisons %d, want 0 (no tables to probe)", i, cmp)
		}
	}
}

func TestOrder1Prediction(t *testing.T) {
	p, err := New([]ref.Stream{{Refs: seq(10, 20, 30), Heat: 5}}, Config{Order: 1})
	if err != nil {
		t.Fatal(err)
	}
	pf, cmp := p.Observe(ref.Ref{Addr: 10})
	if !reflect.DeepEqual(pf, []uint64{20}) {
		t.Fatalf("Observe(10) = %v, want [20]", pf)
	}
	if cmp != 1 {
		t.Fatalf("order-1 probe cost %d comparisons, want 1", cmp)
	}
	if pf, _ := p.Observe(ref.Ref{Addr: 99}); pf != nil {
		t.Fatalf("unknown address predicted %v", pf)
	}
	if p.Transitions() != 2 { // 10->20, 20->30
		t.Fatalf("Transitions() = %d, want 2", p.Transitions())
	}
}

func TestOrder2ProbeAndFallback(t *testing.T) {
	// Two streams share the pair (20,30) but diverge after it; the order-2
	// context disambiguates what a bare order-1 probe on 30 cannot.
	p, err := New([]ref.Stream{
		{Refs: seq(10, 30, 40), Heat: 8},
		{Refs: seq(20, 30, 50), Heat: 8},
	}, Config{Fanout: 1, MinProb: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	// Context (20,30): only successor 50.
	pf, cmp := observeAddrs(t, p, 20, 30)
	if !reflect.DeepEqual(pf, []uint64{50}) {
		t.Fatalf("after 20,30: predicted %v, want [50]", pf)
	}
	if cmp != 1 {
		t.Fatalf("order-2 hit cost %d comparisons, want 1", cmp)
	}
	// Context (10,30): only successor 40.
	p.Reset()
	if pf, _ = observeAddrs(t, p, 10, 30); !reflect.DeepEqual(pf, []uint64{40}) {
		t.Fatalf("after 10,30: predicted %v, want [40]", pf)
	}
	// Unknown pair (99,30) falls back to order-1: successors of 30 are
	// {40,50} at probability 0.5 each, both under MinProb 0.6 — nothing
	// survives ranking, and the failed fallback costs a second probe.
	p.Reset()
	pf, cmp = observeAddrs(t, p, 99, 30)
	if pf != nil {
		t.Fatalf("ambiguous fallback predicted %v, want none", pf)
	}
	if cmp != 2 {
		t.Fatalf("order-2 miss + order-1 miss cost %d comparisons, want 2", cmp)
	}
}

func TestHeatWeightedRanking(t *testing.T) {
	// Successor 200 carries 9x the heat of 100: fanout 1 keeps only it,
	// and with MinProb 0.2 the cold successor is filtered even at fanout 2.
	hot := ref.Stream{Refs: seq(1, 200), Heat: 9}
	cold := ref.Stream{Refs: seq(1, 100), Heat: 1}
	p, err := New([]ref.Stream{cold, hot}, Config{Order: 1, Fanout: 2, MinProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	pf, _ := p.Observe(ref.Ref{Addr: 1})
	if !reflect.DeepEqual(pf, []uint64{200}) {
		t.Fatalf("Observe(1) = %v, want [200] (cold successor filtered)", pf)
	}

	// Equal heats tie-break by ascending address, deterministically.
	p2, err := New([]ref.Stream{
		{Refs: seq(1, 300), Heat: 4},
		{Refs: seq(1, 100), Heat: 4},
	}, Config{Order: 1, Fanout: 2, MinProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pf, _ = p2.Observe(ref.Ref{Addr: 1})
	if !reflect.DeepEqual(pf, []uint64{100, 300}) {
		t.Fatalf("tied successors = %v, want [100 300]", pf)
	}
}

func TestSelfTransitionsSkipped(t *testing.T) {
	p, err := New([]ref.Stream{{Refs: seq(5, 5, 5), Heat: 3}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Trained() {
		t.Fatal("self-transitions alone should train nothing")
	}
}

func TestZeroHeatCountsAsOne(t *testing.T) {
	p, err := New([]ref.Stream{{Refs: seq(10, 20)}}, Config{Order: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pf, _ := p.Observe(ref.Ref{Addr: 10}); !reflect.DeepEqual(pf, []uint64{20}) {
		t.Fatalf("zero-heat stream not trained: %v", pf)
	}
}

func TestResetRestoresStartState(t *testing.T) {
	p, err := New([]ref.Stream{{Refs: seq(10, 20, 30), Heat: 2}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() [][]uint64 {
		var out [][]uint64
		for _, a := range []uint64{10, 20, 30, 10, 20} {
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
}

func TestDeterministicAcrossInstances(t *testing.T) {
	streams := []ref.Stream{
		{Refs: seq(1, 2, 3, 4, 5), Heat: 7},
		{Refs: seq(9, 2, 8, 4, 1), Heat: 3},
	}
	a, err := New(streams, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(streams, Config{})
	if err != nil {
		t.Fatal(err)
	}
	trace := []uint64{1, 2, 3, 9, 2, 8, 4, 1, 2, 5, 4}
	for i, addr := range trace {
		pfa, ca := a.Observe(ref.Ref{Addr: addr})
		pfb, cb := b.Observe(ref.Ref{Addr: addr})
		if !reflect.DeepEqual(pfa, pfb) || ca != cb {
			t.Fatalf("ref %d: instances diverged: (%v,%d) vs (%v,%d)", i, pfa, ca, pfb, cb)
		}
	}
}

func TestObserveAllocFree(t *testing.T) {
	p, err := New([]ref.Stream{{Refs: seq(1, 2, 3, 4), Heat: 2}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	trace := []ref.Ref{{Addr: 1}, {Addr: 2}, {Addr: 3}, {Addr: 9}}
	allocs := testing.AllocsPerRun(100, func() {
		for _, r := range trace {
			p.Observe(r)
		}
	})
	if allocs != 0 {
		t.Fatalf("Observe allocated %.1f times per trace", allocs)
	}
}
