package experiment

import (
	"fmt"

	"hotprefetch/internal/memsim"
	"hotprefetch/internal/workload"
)

// MotivationResult quantifies the premise the paper builds on (§1, citing
// [8] and [28]): hot data streams "account for around 90% of program
// references and more than 80% of cache misses". For one benchmark it
// reports the fraction of demand references and of cache misses that touch
// the addresses of the detected hot data streams.
type MotivationResult struct {
	Name        string
	Streams     int
	RefShare    float64 // fraction of references to stream addresses
	L1MissShare float64 // fraction of L1 misses on stream addresses
	L2MissShare float64 // fraction of L2 misses on stream addresses
}

// shareObserver counts accesses and misses split by stream membership.
type shareObserver struct {
	blocks map[uint64]bool // cache blocks covered by stream addresses
	h      *memsim.Hierarchy

	refs, streamRefs     uint64
	l1Miss, streamL1Miss uint64
	l2Miss, streamL2Miss uint64
}

func (o *shareObserver) OnAccess(now uint64, pc int, addr uint64, l1Hit, l2Hit bool) {
	inStream := o.blocks[o.h.Block(addr)]
	o.refs++
	if inStream {
		o.streamRefs++
	}
	if !l1Hit {
		o.l1Miss++
		if inStream {
			o.streamL1Miss++
		}
		if !l2Hit {
			o.l2Miss++
			if inStream {
				o.streamL2Miss++
			}
		}
	}
}

// Motivation profiles each benchmark, detects its hot data streams, and
// measures how much of the reference and miss traffic the streams cover
// during a subsequent run — the measurement that justifies prefetching only
// hot data streams.
func Motivation(params []workload.Params, profileRefs int) ([]MotivationResult, error) {
	if params == nil {
		params = workload.Catalog()
	}
	if profileRefs <= 0 {
		profileRefs = 60000
	}
	cache := workload.CacheConfig()
	out := make([]MotivationResult, 0, len(params))
	for _, p := range params {
		streams, err := collectStreams(p, profileRefs)
		if err != nil {
			return nil, fmt.Errorf("%s profile: %w", p.Name, err)
		}

		// Measure within the profiled phase: the profile covers the start
		// of the run, so restrict the measurement to one (shortened) phase
		// block rather than the whole multi-phase execution.
		mp := p
		mp.PhaseBlocks = 1
		mp.LapsPerBlock = min(mp.LapsPerBlock, 400)
		inst := workload.Build(mp)
		m := inst.NewMachine(cache, false)
		obs := &shareObserver{blocks: map[uint64]bool{}, h: m.Cache}
		for _, s := range streams {
			for _, r := range s.Refs {
				obs.blocks[m.Cache.Block(r.Addr)] = true
			}
		}
		m.Cache.SetObserver(obs)
		if err := m.RunToCompletion(); err != nil {
			return nil, fmt.Errorf("%s measure: %w", p.Name, err)
		}

		res := MotivationResult{Name: p.Name, Streams: len(streams)}
		if obs.refs > 0 {
			res.RefShare = float64(obs.streamRefs) / float64(obs.refs)
		}
		if obs.l1Miss > 0 {
			res.L1MissShare = float64(obs.streamL1Miss) / float64(obs.l1Miss)
		}
		if obs.l2Miss > 0 {
			res.L2MissShare = float64(obs.streamL2Miss) / float64(obs.l2Miss)
		}
		out = append(out, res)
	}
	return out, nil
}
