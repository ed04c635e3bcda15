package experiment

// Prepass-vs-lossless profiling comparison: the correctness backing for the
// two-level ingest front end (sequitur.Prepass). The same reference trace is
// compressed twice — once through plain AppendRun, once through the prepass
// — and three things are checked: the prepass grammar expands to the exact
// input (the content-lossless contract), the collapse ratio quantifies how
// much of the trace skipped the digram table, and the hot-stream sets match
// under the same cyclic-fragment containment the sampling study uses (the
// fast detector walks grammar structure, so stream boundaries can shift even
// though the encoded trace is identical).

import (
	"fmt"

	"hotprefetch/internal/hotds"
	"hotprefetch/internal/ref"
	"hotprefetch/internal/sequitur"
	"hotprefetch/internal/workload"
)

// PrepassResult compares one benchmark's hot streams detected from a
// lossless profile against those detected through the two-level ingest
// front end over the same trace.
type PrepassResult struct {
	Name      string
	TotalRefs int // references in the captured trace

	// Collapsed is the number of references the front end absorbed without
	// a digram-table epoch; CollapseRatio is Collapsed/TotalRefs.
	Collapsed     uint64
	CollapseRatio float64

	// LosslessSymbols and PrepassSymbols are the final grammar sizes; the
	// prepass grammar carries extra phrase/doubling rules, so the ratio
	// shows what the speed costs in grammar residency.
	LosslessSymbols, PrepassSymbols int

	LosslessStreams int // hot streams found by the lossless profile
	PrepassStreams  int // hot streams found through the front end

	// TopRecall, HeatRecall, and Precision mirror SamplingResult: the
	// fraction of the lossless top-10 rediscovered, heat-weighted recall
	// over all lossless streams, and the fraction of prepass streams that
	// correspond to some lossless stream.
	TopRecall  float64
	HeatRecall float64
	Precision  float64
}

// prepassChunk is the batch size the study feeds the front end in,
// mirroring the shard consumer's ring batches.
const prepassChunk = 256

// analyzeTracePrepass compresses a reference sequence through the two-level
// front end and extracts its hot streams as pc sequences, also returning
// the collapse count and grammar size. The prepass grammar's expansion is
// verified against the input before analysis: a mismatch is a contract
// violation, not a quality degradation, and fails the whole comparison.
func analyzeTracePrepass(trace []ref.Ref, cfg hotds.Config, pcfg sequitur.PrepassConfig) ([]pcStream, uint64, int, error) {
	g := sequitur.New()
	in := ref.NewInterner()
	vals := make([]uint64, len(trace))
	for i, r := range trace {
		vals[i] = uint64(in.Intern(r))
	}
	p := sequitur.NewPrepass(g, pcfg)
	for lo := 0; lo < len(vals); lo += prepassChunk {
		hi := lo + prepassChunk
		if hi > len(vals) {
			hi = len(vals)
		}
		p.Append(vals[lo:hi])
	}
	got := g.Snapshot().Expand(0)
	if len(got) != len(vals) {
		return nil, 0, 0, fmt.Errorf("prepass expansion length %d, want %d", len(got), len(vals))
	}
	for i := range got {
		if got[i] != vals[i] {
			return nil, 0, 0, fmt.Errorf("prepass expansion differs at %d: %d != %d", i, got[i], vals[i])
		}
	}
	infos := hotds.Analyze(g.Snapshot(), cfg)
	out := make([]pcStream, len(infos))
	for i, info := range infos {
		pcs := make([]int, len(info.Word))
		for j, sym := range info.Word {
			pcs[j] = in.Ref(ref.Symbol(sym)).PC
		}
		out[i] = pcStream{pcs: pcs, heat: info.Heat}
	}
	return out, p.Collapsed(), g.Size(), nil
}

// PrepassComparison profiles each benchmark's trace losslessly and through
// the two-level ingest front end, verifying the content-lossless contract
// and reporting collapse ratios and hot-stream agreement. refs <= 0 means
// 240000 references per benchmark; a nil params slice means the full
// catalog; the zero pcfg means the front end's defaults.
func PrepassComparison(params []workload.Params, refs int, pcfg sequitur.PrepassConfig) ([]PrepassResult, error) {
	if params == nil {
		params = workload.Catalog()
	}
	if refs <= 0 {
		refs = 240000
	}
	acfg := AnalysisConfig()
	out := make([]PrepassResult, 0, len(params))
	for _, p := range params {
		trace, err := workload.Build(p).Capture(refs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}

		full := analyzeTrace(trace, acfg)
		var losslessSymbols int
		{
			g := sequitur.New()
			in := ref.NewInterner()
			vals := make([]uint64, len(trace))
			for i, r := range trace {
				vals[i] = uint64(in.Intern(r))
			}
			g.AppendRun(vals)
			losslessSymbols = g.Size()
		}
		pre, collapsed, preSymbols, err := analyzeTracePrepass(trace, acfg, pcfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}

		matched := func(l pcStream) bool {
			for _, s := range pre {
				if streamsMatch(l, s) {
					return true
				}
			}
			return false
		}
		top := full
		if len(top) > 10 {
			top = top[:10]
		}
		topHit := 0
		for _, l := range top {
			if matched(l) {
				topHit++
			}
		}
		var heatTotal, heatHit uint64
		for _, l := range full {
			heatTotal += l.heat
			if matched(l) {
				heatHit += l.heat
			}
		}
		precHit := 0
		for _, s := range pre {
			for _, l := range full {
				if streamsMatch(l, s) {
					precHit++
					break
				}
			}
		}

		r := PrepassResult{
			Name:            p.Name,
			TotalRefs:       len(trace),
			Collapsed:       collapsed,
			LosslessSymbols: losslessSymbols,
			PrepassSymbols:  preSymbols,
			LosslessStreams: len(full),
			PrepassStreams:  len(pre),
		}
		if len(trace) > 0 {
			r.CollapseRatio = float64(collapsed) / float64(len(trace))
		}
		if len(top) > 0 {
			r.TopRecall = float64(topHit) / float64(len(top))
		}
		if heatTotal > 0 {
			r.HeatRecall = float64(heatHit) / float64(heatTotal)
		}
		if len(pre) > 0 {
			r.Precision = float64(precHit) / float64(len(pre))
		}
		out = append(out, r)
	}
	return out, nil
}
