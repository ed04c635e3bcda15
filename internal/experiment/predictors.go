package experiment

// Head-to-head predictor comparison: every workload's trace is split into a
// training prefix and an evaluation suffix, the training split is profiled
// (Sequitur + hot-data-stream analysis, the paper's §3 pipeline) into hot
// streams, and each registered predictor implementation is trained on the
// same streams and drives prefetching over the same evaluation replay
// through internal/memsim. One trace, one stream set, one cache geometry —
// the only variable is the predictor, so coverage/accuracy/timeliness and
// cycle cost are directly comparable across the design space the ROADMAP
// maps (DFSM prefix matching, Markov transition tables, stream/stride
// detection).

import (
	"fmt"

	"hotprefetch/internal/hotds"
	"hotprefetch/internal/memsim"
	"hotprefetch/internal/predictor"
	"hotprefetch/internal/ref"
	"hotprefetch/internal/sequitur"
	"hotprefetch/internal/workload"
)

// PredictorResult is one (workload, predictor) cell of the head-to-head
// table.
type PredictorResult struct {
	Workload  string
	Predictor string

	TrainStreams int // hot streams extracted from the training split
	EvalRefs     int // references replayed through the simulated hierarchy

	Issued      uint64 // prefetch addresses issued during replay
	Useful      uint64 // prefetched blocks later touched by a demand access
	Late        uint64 // useful prefetches touched before their fill completed
	Comparisons uint64 // detection comparisons charged during replay

	Accuracy   float64 // Useful / Issued (paper Table 2's accuracy metric)
	Coverage   float64 // fraction of the baseline's L1 misses eliminated
	Timeliness float64 // 1 - Late/Useful: fraction of useful fills fully ahead

	Cycles         uint64  // replay cycles with this predictor driving prefetch
	BaselineCycles uint64  // the same replay with prefetching disabled
	CycleDelta     float64 // (Cycles - BaselineCycles) / BaselineCycles
}

// analyzeTraceRefs compresses a reference sequence and extracts its hot
// streams with full references (analyzeTrace projects them to pcs).
func analyzeTraceRefs(trace []ref.Ref, cfg hotds.Config) []ref.Stream {
	g := sequitur.New()
	in := ref.NewInterner()
	vals := make([]uint64, len(trace))
	for i, r := range trace {
		vals[i] = uint64(in.Intern(r))
	}
	g.AppendRun(vals)
	infos := hotds.Analyze(g.Snapshot(), cfg)
	out := make([]ref.Stream, len(infos))
	for i, info := range infos {
		out[i] = in.Stream(info.Word, info.Heat)
	}
	return out
}

// PredictorHeadLen is the stream-head length the harness trains the DFSM
// with (the paper's best setting, §4.3).
const PredictorHeadLen = 2

// namedInstance pairs a built workload with its report name.
type namedInstance struct {
	name string
	inst *workload.Instance
}

// predictorWorkloads builds the comparison's workload set: the given params
// (nil means the full catalog), plus — only in full-catalog mode — the
// extended pointer-intensive workloads (health, em3d), which exist as built
// instances rather than catalog Params.
func predictorWorkloads(params []workload.Params) ([]namedInstance, error) {
	full := params == nil
	if full {
		params = workload.Catalog()
	}
	out := make([]namedInstance, 0, len(params)+2)
	for _, p := range params {
		out = append(out, namedInstance{name: p.Name, inst: workload.Build(p)})
	}
	if full {
		for _, name := range workload.ExtendedNames() {
			inst, err := workload.BuildExtended(name)
			if err != nil {
				return nil, err
			}
			out = append(out, namedInstance{name: name, inst: inst})
		}
	}
	return out, nil
}

// PredictorComparison runs every registered predictor over every workload:
// per workload the first 60% of the captured trace trains (profile → hot
// streams), the remaining 40% replays through the simulated hierarchy once
// per predictor plus once with no prefetching (the baseline all metrics are
// relative to). refs <= 0 means 150000 captured references per workload; a
// nil params slice means the full catalog plus the extended workloads.
func PredictorComparison(params []workload.Params, refs int) ([]PredictorResult, error) {
	if refs <= 0 {
		refs = 150000
	}
	insts, err := predictorWorkloads(params)
	if err != nil {
		return nil, err
	}
	acfg := hotds.DefaultConfig()
	names := predictor.Names()
	out := make([]PredictorResult, 0, len(insts)*len(names))
	for _, ni := range insts {
		trace, err := ni.inst.Capture(refs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ni.name, err)
		}
		cut := len(trace) * 60 / 100
		train, eval := trace[:cut], trace[cut:]
		streams := analyzeTraceRefs(train, acfg)

		base := memsim.New(workload.CacheConfig())
		baseCycles, _ := memsim.Replay(base, 0, eval, nil)
		baseMisses := base.Stats().L1Misses
		for _, name := range names {
			pred, err := predictor.New(name, streams, PredictorHeadLen)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", ni.name, name, err)
			}
			h := memsim.New(workload.CacheConfig())
			cycles, comparisons := memsim.Replay(h, 0, eval, pred)
			st := h.Stats()
			r := PredictorResult{
				Workload:       ni.name,
				Predictor:      name,
				TrainStreams:   len(streams),
				EvalRefs:       len(eval),
				Issued:         st.Prefetches,
				Useful:         st.UsefulPrefetches,
				Late:           st.LatePrefetches,
				Comparisons:    comparisons,
				Cycles:         cycles,
				BaselineCycles: baseCycles,
			}
			if r.Issued > 0 {
				r.Accuracy = float64(r.Useful) / float64(r.Issued)
			}
			if baseMisses > 0 && baseMisses >= st.L1Misses {
				r.Coverage = float64(baseMisses-st.L1Misses) / float64(baseMisses)
			}
			if r.Useful > 0 {
				r.Timeliness = 1 - float64(r.Late)/float64(r.Useful)
			}
			if baseCycles > 0 {
				r.CycleDelta = (float64(cycles) - float64(baseCycles)) / float64(baseCycles)
			}
			out = append(out, r)
		}
	}
	return out, nil
}
