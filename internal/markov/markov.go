// Package markov implements a Markov-chain next-address predictor in the
// style of Pangloss: hot-stream training builds order-1 and order-2 address
// transition tables whose candidate lists are ranked by transition
// probability, and observation walks the tables with an order-2 probe
// falling back to order-1.
//
// Where the DFSM (internal/dfsm) matches exact stream prefixes and prefetches
// the suffix, the Markov predictor generalizes: any address pair seen during
// training predicts its likely successors regardless of which hot stream it
// came from, trading the DFSM's precision for coverage of interleavings the
// grammar analysis never surfaced as a single stream.
//
// All ranking happens at Train time — candidate lists are precomputed,
// probability-filtered, and stored as immutable slices — so Observe is a
// map probe or two and allocates nothing. The returned prefetch slice
// aliases the trained tables and must not be mutated.
package markov

import (
	"fmt"
	"sort"

	"hotprefetch/internal/ref"
)

// Config controls table order and candidate ranking.
type Config struct {
	// Order is the maximum context length: 1 uses only the last address,
	// 2 (the default) probes the last two addresses first and falls back
	// to order-1 on a miss.
	Order int
	// Fanout caps the number of addresses predicted per transition
	// (default 2). Candidates beyond the cap are dropped in rank order.
	Fanout int
	// MinProb drops candidates whose heat-weighted transition probability
	// falls below this fraction (default 0.2): a successor seen on a cold
	// minority path does not earn a prefetch.
	MinProb float64
}

func (c Config) withDefaults() Config {
	if c.Order == 0 {
		c.Order = 2
	}
	if c.Fanout == 0 {
		c.Fanout = 2
	}
	if c.MinProb == 0 {
		c.MinProb = 0.2
	}
	return c
}

func (c Config) validate() error {
	if c.Order < 1 || c.Order > 2 {
		return fmt.Errorf("markov: order must be 1 or 2, got %d", c.Order)
	}
	if c.Fanout < 1 {
		return fmt.Errorf("markov: fanout must be >= 1, got %d", c.Fanout)
	}
	if c.MinProb < 0 || c.MinProb > 1 {
		return fmt.Errorf("markov: min probability must be in [0,1], got %g", c.MinProb)
	}
	return nil
}

type pair struct{ a, b uint64 }

// Predictor is a trained Markov predictor. It is not safe for concurrent
// use; wrap it (see the root package's ConcurrentMatcher) to share it.
type Predictor struct {
	cfg Config

	// Ranked prediction lists, frozen at Train time.
	t1 map[uint64][]uint64
	t2 map[pair][]uint64

	// Rolling context: the previously observed address (the order-2 probe
	// key is (last, current)).
	last uint64
	have int
}

// New trains a predictor on streams, each stream's heat weighting its
// transitions so hot streams dominate candidate ranking. An empty (or nil)
// stream set is valid and yields a pass-through predictor that predicts
// nothing and probes nothing — every observation costs 0, mirroring the
// deoptimized DFSM.
func New(streams []ref.Stream, cfg Config) (*Predictor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Predictor{
		cfg: cfg,
		t1:  make(map[uint64][]uint64),
		t2:  make(map[pair][]uint64),
	}
	w1 := make(map[uint64]map[uint64]uint64)
	w2 := make(map[pair]map[uint64]uint64)
	for _, s := range streams {
		heat := s.Heat
		if heat == 0 {
			heat = 1
		}
		for i := 0; i+1 < len(s.Refs); i++ {
			next := s.Refs[i+1].Addr
			cur := s.Refs[i].Addr
			if next == cur {
				// A self-transition predicts the address just accessed —
				// it is already resident, so a prefetch would be pure
				// overhead. Skip it at training time.
				continue
			}
			addWeight(w1, cur, next, heat)
			if cfg.Order >= 2 && i >= 1 {
				k := pair{s.Refs[i-1].Addr, cur}
				m := w2[k]
				if m == nil {
					m = make(map[uint64]uint64)
					w2[k] = m
				}
				m[next] += heat
			}
		}
	}
	for ctx, m := range w1 {
		if l := rank(m, cfg); len(l) > 0 {
			p.t1[ctx] = l
		}
	}
	for ctx, m := range w2 {
		if l := rank(m, cfg); len(l) > 0 {
			p.t2[ctx] = l
		}
	}
	return p, nil
}

func addWeight(w map[uint64]map[uint64]uint64, ctx, next, heat uint64) {
	m := w[ctx]
	if m == nil {
		m = make(map[uint64]uint64)
		w[ctx] = m
	}
	m[next] += heat
}

// rank turns a weight map into a deterministic prediction list: candidates
// sorted by weight descending (ties broken by ascending address, so map
// iteration order never leaks into predictions), probability-filtered
// against the total, capped at Fanout.
func rank(m map[uint64]uint64, cfg Config) []uint64 {
	type cand struct {
		addr uint64
		w    uint64
	}
	var total uint64
	cands := make([]cand, 0, len(m))
	for a, w := range m {
		cands = append(cands, cand{a, w})
		total += w
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].w != cands[j].w {
			return cands[i].w > cands[j].w
		}
		return cands[i].addr < cands[j].addr
	})
	out := make([]uint64, 0, cfg.Fanout)
	for _, c := range cands {
		if len(out) == cfg.Fanout {
			break
		}
		if float64(c.w) < cfg.MinProb*float64(total) {
			break // sorted by weight: everything after is colder
		}
		out = append(out, c.addr)
	}
	return out
}

// Observe consumes one data reference and returns the addresses to prefetch
// plus the number of table probes performed (the detection-cost analogue of
// the DFSM's comparison count): at least one once trained, 0 while the
// tables are empty (see Trained). The returned slice aliases the trained
// tables and must not be mutated.
func (p *Predictor) Observe(r ref.Ref) (prefetch []uint64, comparisons int) {
	if !p.Trained() {
		return nil, 0
	}
	a := r.Addr
	last, have := p.last, p.have
	p.last, p.have = a, 1
	if p.cfg.Order >= 2 && have >= 1 {
		comparisons++
		if l, ok := p.t2[pair{last, a}]; ok {
			return l, comparisons
		}
	}
	comparisons++
	if l, ok := p.t1[a]; ok {
		return l, comparisons
	}
	return nil, comparisons
}

// Reset clears the rolling context, returning the predictor to its
// post-Train start state. The transition tables are retained.
func (p *Predictor) Reset() {
	p.last, p.have = 0, 0
}

// Trained reports whether training produced any transitions.
func (p *Predictor) Trained() bool { return len(p.t1) > 0 || len(p.t2) > 0 }

// Transitions returns the number of distinct (context, prediction-list)
// entries across both table orders, for stats surfaces.
func (p *Predictor) Transitions() int { return len(p.t1) + len(p.t2) }
