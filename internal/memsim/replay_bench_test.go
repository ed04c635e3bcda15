package memsim_test

import (
	"testing"

	"hotprefetch/internal/memsim"
	"hotprefetch/internal/ref"
	"hotprefetch/internal/workload"
)

// lookahead is a detector that knows the trace it runs on: at each
// reference it prefetches the addresses near and far references ahead, for
// one comparison. Near prefetches hit, often late, or find their block
// already in L1; far ones are often evicted before their use.
type lookahead struct {
	trace     []ref.Ref
	i         int
	near, far int
	pf        []uint64
}

func (l *lookahead) Observe(ref.Ref) ([]uint64, int) {
	l.pf = l.pf[:0]
	for _, d := range [2]int{l.near, l.far} {
		if j := l.i + d; j < len(l.trace) {
			l.pf = append(l.pf, l.trace[j].Addr)
		}
	}
	l.i++
	return l.pf, 1
}

// BenchmarkReplay replays the first 1M references of health and mcf through
// Replay on the workload experiments' hierarchy, with a lookahead detector,
// and reports the cost per reference. The trace is captured once, outside
// the timer.
func BenchmarkReplay(b *testing.B) {
	for _, w := range []struct {
		name string
		inst func() *workload.Instance
	}{
		{"health", func() *workload.Instance { return workload.BuildHealth(workload.DefaultHealth()) }},
		{"mcf", func() *workload.Instance { return workload.Build(workload.Mcf()) }},
	} {
		b.Run(w.name, func(b *testing.B) {
			trace, err := w.inst().Capture(1 << 20)
			if err != nil {
				b.Fatal(err)
			}
			h := memsim.New(workload.CacheConfig())
			d := &lookahead{trace: trace, near: 4, far: 64, pf: make([]uint64, 0, 2)}
			memsim.Replay(h, 0, trace, d)
			st := h.Stats()
			if st.L1Hits == 0 || st.L1Misses == 0 || st.LatePrefetches == 0 || st.UsefulPrefetches == st.LatePrefetches ||
				st.PrefetchDupes == 0 || st.PrefetchEvictions == 0 {
				b.Fatalf("replay missed a path of the hierarchy: %+v", st)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				h.Reset()
				d.i = 0
				memsim.Replay(h, 0, trace, d)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trace)), "ns/ref")
		})
	}
}
