package memsim

import (
	"math/rand"
	"slices"
	"testing"
)

// access is one observer callback.
type access struct {
	now          uint64
	pc           int
	addr         uint64
	l1Hit, l2Hit bool
}

// recorder keeps the observer callbacks a hierarchy made.
type recorder struct{ calls []access }

func (r *recorder) OnAccess(now uint64, pc int, addr uint64, l1Hit, l2Hit bool) {
	r.calls = append(r.calls, access{now, pc, addr, l1Hit, l2Hit})
}

// twin drives the flat Hierarchy and the reference through the same
// operations and fails the test at the first difference.
type twin struct {
	t               testing.TB
	got             *Hierarchy
	want            *refHierarchy
	gotObs, wantObs recorder
}

func newTwin(t testing.TB, cfg Config) *twin {
	w := &twin{t: t, got: New(cfg), want: newRefHierarchy(cfg)}
	w.got.SetObserver(&w.gotObs)
	w.want.observer = &w.wantObs
	return w
}

func (w *twin) access(step int, now uint64, pc int, addr uint64, isWrite bool) {
	w.t.Helper()
	if g, r := w.got.Access(now, pc, addr, isWrite), w.want.Access(now, pc, addr, isWrite); g != r {
		w.t.Fatalf("step %d: Access(now %d, %#x) stalls %d, reference %d", step, now, addr, g, r)
	}
	if !slices.Equal(w.gotObs.calls, w.wantObs.calls) {
		w.t.Fatalf("step %d: observer saw %+v, reference %+v", step, w.gotObs.calls, w.wantObs.calls)
	}
	w.gotObs.calls, w.wantObs.calls = w.gotObs.calls[:0], w.wantObs.calls[:0]
}

func (w *twin) prefetch(now, addr uint64) {
	w.got.Prefetch(now, addr)
	w.want.Prefetch(now, addr)
}

func (w *twin) reset() {
	w.got.Reset()
	w.want.Reset()
}

// check fails the test unless both hierarchies hold the same counters and
// the same fills in flight, and every set of both levels holds the same
// blocks in the same LRU order with the same fresh flags. It also asks
// both whether each level holds addr.
func (w *twin) check(step int, addr uint64) {
	w.t.Helper()
	if g, r := w.got.Stats(), w.want.stats; g != r {
		w.t.Fatalf("step %d: stats %+v, reference %+v", step, g, r)
	}
	sameFills(w.t, step, &w.got.fills, w.want.inflight)
	sameWays(w.t, step, &w.got.l1, w.want.l1, wayFresh)
	sameWays(w.t, step, &w.got.l2, w.want.l2, 0)
	for lvl := 1; lvl <= 2; lvl++ {
		if g, r := w.got.Contains(lvl, addr), w.want.Contains(lvl, addr); g != r {
			w.t.Fatalf("step %d: Contains(%d, %#x) = %v, reference %v", step, lvl, addr, g, r)
		}
	}
}

// sameFills fails tb unless t holds exactly want's fills, is at most half
// full and counts its fills right.
func sameFills(tb testing.TB, step int, t *fillTable, want map[uint64]uint64) {
	tb.Helper()
	held := 0
	for _, s := range t.slots {
		if s.block != 0 {
			held++
		}
	}
	if t.zero {
		held++
	}
	if held != t.n || t.n != len(want) || 2*t.n > len(t.slots) {
		tb.Fatalf("step %d: %d fills held, %d counted, in %d slots; reference %d in flight", step, held, t.n, len(t.slots), len(want))
	}
	for b, ready := range want {
		got, ok := t.zeroReady, t.zero
		if b != 0 {
			s := t.slots[t.find(b)]
			got, ok = s.ready, s.block == b
		}
		if !ok || got != ready {
			tb.Fatalf("step %d: block %#x in flight until %d (%v), reference until %d", step, b, got, ok, ready)
		}
	}
}

// sameWays fails tb unless every way of c holds the word the reference's
// line in the same position packs to. fresh is the flag a prefetched,
// untouched line carries at this level: L2 keeps none, as nothing reads it.
func sameWays(tb testing.TB, step int, c *level, want *refCache, fresh uint64) {
	tb.Helper()
	for s, set := range want.sets {
		for i, l := range set {
			var w uint64
			if l.valid {
				w = l.tag>>c.setBits<<wayFlagBits | wayValid
				if l.prefetched && !l.touched {
					w |= fresh
				}
			}
			if got := c.ways[s*c.assoc+i]; got != w {
				tb.Fatalf("step %d: set %d way %d holds %#x, reference %#x (%+v)", step, s, i, got, w, l)
			}
		}
	}
}

// fuzzGeometries are the hierarchies the fuzzer picks from: the small test
// geometry, one-byte blocks, a fully associative L1 and a direct-mapped L1.
var fuzzGeometries = []Config{
	smallConfig(),
	{BlockSize: 1, L1Size: 16, L1Assoc: 2, L2Size: 64, L2Assoc: 4},
	{BlockSize: 4, L1Size: 16, L1Assoc: 4, L2Size: 64, L2Assoc: 8},
	{BlockSize: 8, L1Size: 64, L1Assoc: 1, L2Size: 256, L2Assoc: 2},
}

// fuzzAddr maps a byte to an address: 64 consecutive blocks in each of four
// regions (0, 2^32, 2^63 and the top of the address space), so equal bytes
// hit the same block, blocks crowd every set of both levels, and byte 0xff
// is the last address, 2^64 - 1. The upper two regions address the last
// byte of each block.
func fuzzAddr(b byte, blockSize uint64) uint64 {
	base := [4]uint64{0, 1 << 32, 1 << 63, 0 - 64*blockSize}[b>>6]
	return base + uint64(b&63)*blockSize + (blockSize-1)*uint64(b>>7)
}

// FuzzHierarchyDifferential drives the flat Hierarchy and the reference
// through the same operations and requires the same stall from every
// access and the same counters, observer callbacks, fills in flight, ways
// and Contains answers after every operation. The input is three header
// bytes (geometry and MaxInflight; the start cycle, 16·k cycles before
// 2^64 so that cycles wrap; the L2 and memory latencies) followed by
// three-byte operations: a kind byte (low nibble 0–7 a load, 8–9 a store,
// 10–14 a prefetch, 15 a Reset; high nibble the pc), an address byte (see
// fuzzAddr) and a signed cycle step taken before the operation. The seed
// corpus (testdata/fuzz/FuzzHierarchyDifferential) covers each geometry,
// MaxInflight 0 and 1–9, cycles that wrap and run backwards, the address
// 2^64 - 1 with one-byte blocks, and a Reset mid-stream.
func FuzzHierarchyDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := fuzzGeometries[data[0]%4]
		cfg.MaxInflight = int(data[0]>>2) % 10
		cfg.L2HitLatency = uint64(data[2] & 15)
		cfg.MemLatency = uint64(data[2]>>4) * 16
		w := newTwin(t, cfg)
		now := 0 - 16*uint64(data[1])
		for i, step := 3, 0; i+2 < len(data); i, step = i+3, step+1 {
			kind, addr := data[i], fuzzAddr(data[i+1], uint64(cfg.BlockSize))
			now += uint64(int64(int8(data[i+2])))
			switch op := kind & 15; {
			case op < 10:
				w.access(step, now, int(kind>>4), addr, op >= 8)
			case op < 15:
				w.prefetch(now, addr)
			default:
				w.reset()
			}
			w.check(step, addr)
		}
	})
}

// TestHierarchyMatchesReferenceAtScale runs the paper's geometry and the
// workload experiments' scaled one against the reference over long random
// streams, with MaxInflight off and at 1, 4 and 9, so the packed sets and
// the fill table are checked at the sizes and loads they run at as well as
// in the fuzzer's tiny caches. Half the loads hit a hot set of blocks; the
// rest walk a region eight times the size of L2, and prefetches run up to
// twelve blocks ahead of the walk, so some fills land late, some in time
// and some are evicted unused.
func TestHierarchyMatchesReferenceAtScale(t *testing.T) {
	scaled := Config{BlockSize: 32, L1Size: 2 << 10, L1Assoc: 4, L2Size: 32 << 10, L2Assoc: 8, L2HitLatency: 10, MemLatency: 100}
	for _, cfg := range []Config{DefaultConfig(), scaled} {
		for _, max := range []int{0, 1, 4, 9} {
			cfg.MaxInflight = max
			r := rand.New(rand.NewSource(int64(cfg.L1Size + max)))
			wide := uint64(8 * cfg.L2Size / 32)
			w := newTwin(t, cfg)
			now, walk := uint64(0), uint64(0)
			for step := 0; step < 50_000; step++ {
				a := uint64(r.Intn(64)) * 32 * 7
				if r.Intn(2) == 0 {
					walk = (walk + 1 + uint64(r.Intn(2))) % wide
					if r.Intn(500) == 0 {
						walk = uint64(r.Int63n(int64(wide)))
					}
					a = walk*32 + uint64(r.Intn(32))
				}
				w.access(step, now, step&7, a, r.Intn(8) == 0)
				now += 1 + uint64(r.Intn(40))
				for k := r.Intn(4); k > 0; k-- {
					w.prefetch(now, (walk+1+uint64(r.Intn(12)))*32)
				}
				if step == 25_000 {
					w.reset()
				}
				if step%1000 == 0 {
					w.check(step, a)
				} else if g := w.got.Stats(); g != w.want.stats {
					t.Fatalf("step %d: stats %+v, reference %+v", step, g, w.want.stats)
				}
			}
			w.check(-1, 0)
			st := w.got.Stats()
			if st.LatePrefetches == 0 || st.UsefulPrefetches == st.LatePrefetches || st.PrefetchEvictions == 0 ||
				st.PrefetchDupes == 0 || st.L2Hits == 0 || st.L2Misses == 0 || (max > 0) != (st.PrefetchDrops > 0) {
				t.Fatalf("%d-byte L1, MaxInflight %d: stream never exercised the hierarchy: %+v", cfg.L1Size, max, st)
			}
		}
	}
}
