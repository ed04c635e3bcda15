package experiment

// Sampled-vs-lossless profiling comparison: the quantitative backing for the
// paper's premise that bursty sampling "suffices to detect hot data
// streams" (§2.2, Table 2). The same reference trace is profiled twice —
// once losslessly, once through the bursty-tracing counter machine — and
// the two hot-stream sets are compared by pc sequence. A sampled profile
// sees bursts (contiguous windows) of the trace, so it rediscovers a hot
// stream as a cyclic fragment of the lossless stream's pc sequence: stream
// [a b c d] sampled in bursts may surface as [c d a b] or [b c d a b c] —
// same regularity, different phase and length. Matching is therefore
// cyclic-fragment containment, not exact signature equality.

import (
	"fmt"
	"strings"

	"hotprefetch/internal/burst"
	"hotprefetch/internal/hotds"
	"hotprefetch/internal/ref"
	"hotprefetch/internal/workload"
)

// SamplingResult compares one benchmark's hot streams detected from a
// lossless profile against those detected from a bursty-sampled profile of
// the same trace.
type SamplingResult struct {
	Name        string
	TotalRefs   int     // references in the captured trace
	SampledRefs int     // references the burst controller admitted
	Rate        float64 // achieved sampling rate SampledRefs/TotalRefs

	LosslessStreams int // hot streams found by the lossless profile
	SampledStreams  int // hot streams found by the sampled profile

	// TopRecall is the fraction of the lossless top-10 streams (by heat)
	// the sampled profile rediscovered (as a cyclic fragment or extension);
	// HeatRecall weights recall by heat over all lossless streams;
	// Precision is the fraction of sampled streams that correspond to some
	// lossless stream (the sampled profile should not hallucinate
	// regularity that is not in the full trace).
	TopRecall  float64
	HeatRecall float64
	Precision  float64
}

// pcStream is one detected hot stream reduced to its instruction sequence.
type pcStream struct {
	pcs  []int
	heat uint64
}

// analyzeTrace extracts a trace's hot streams (analyzeTraceRefs) reduced
// to their pc sequences.
func analyzeTrace(trace []ref.Ref, cfg hotds.Config) []pcStream {
	streams := analyzeTraceRefs(trace, cfg)
	out := make([]pcStream, len(streams))
	for i, s := range streams {
		pcs := make([]int, len(s.Refs))
		for j, r := range s.Refs {
			pcs[j] = r.PC
		}
		out[i] = pcStream{pcs: pcs, heat: s.Heat}
	}
	return out
}

// sampleTrace runs the trace through a bursty-tracing controller and
// returns the references admitted during awake instrumented bursts.
func sampleTrace(trace []ref.Ref, cfg burst.Config) []ref.Ref {
	c := burst.New(cfg)
	out := make([]ref.Ref, 0, len(trace)/64)
	for _, r := range trace {
		instrumented, phaseEnded := c.Check()
		if instrumented && c.Awake() {
			out = append(out, r)
		}
		if phaseEnded {
			if c.Awake() {
				c.Hibernate()
			} else {
				c.Wake()
			}
		}
	}
	return out
}

// sig renders a pc sequence with full-token delimiters (",1,12,"), so
// substring containment can never match across token boundaries.
func sig(pcs []int) string {
	var b strings.Builder
	b.WriteByte(',')
	for _, pc := range pcs {
		fmt.Fprintf(&b, "%d,", pc)
	}
	return b.String()
}

// doubled renders two periods of the sequence (",1,12,1,12,"), the search
// space for cyclic fragments.
func doubled(pcs []int) string {
	var b strings.Builder
	b.WriteByte(',')
	for i := 0; i < 2; i++ {
		for _, pc := range pcs {
			fmt.Fprintf(&b, "%d,", pc)
		}
	}
	return b.String()
}

// streamsMatch reports whether a sampled stream rediscovers a lossless one:
// the sampled pc sequence is a cyclic fragment of the lossless stream (a
// contiguous window of its repetition, any phase, up to two periods long)
// or contains the whole lossless sequence.
func streamsMatch(lossless, sampled pcStream) bool {
	return strings.Contains(doubled(lossless.pcs), sig(sampled.pcs)) ||
		strings.Contains(sig(sampled.pcs), sig(lossless.pcs))
}

// SamplingComparison profiles each benchmark's trace losslessly and through
// the given burst configuration, and reports how much of the hot-stream set
// sampling preserves. refs <= 0 means 240000 references per benchmark; a
// nil params slice means the full catalog.
//
// The analysis uses the paper's §4.1 stream thresholds for both profiles;
// for the sampled profile the coverage floor applies to the sampled trace
// length (coverage is relative to what was collected, exactly as in the
// paper).
func SamplingComparison(params []workload.Params, refs int, bcfg burst.Config) ([]SamplingResult, error) {
	if params == nil {
		params = workload.Catalog()
	}
	if refs <= 0 {
		refs = 240000
	}
	acfg := hotds.DefaultConfig()
	out := make([]SamplingResult, 0, len(params))
	for _, p := range params {
		trace, err := workload.Build(p).Capture(refs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		sampled := sampleTrace(trace, bcfg)

		full := analyzeTrace(trace, acfg)
		samp := analyzeTrace(sampled, acfg)

		matched := func(l pcStream) bool {
			for _, s := range samp {
				if streamsMatch(l, s) {
					return true
				}
			}
			return false
		}

		// hotds.Analyze emits hottest-first, so full[:10] is the top set.
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
		for _, s := range samp {
			for _, l := range full {
				if streamsMatch(l, s) {
					precHit++
					break
				}
			}
		}

		r := SamplingResult{
			Name:            p.Name,
			TotalRefs:       len(trace),
			SampledRefs:     len(sampled),
			LosslessStreams: len(full),
			SampledStreams:  len(samp),
		}
		if len(trace) > 0 {
			r.Rate = float64(len(sampled)) / float64(len(trace))
		}
		if len(top) > 0 {
			r.TopRecall = float64(topHit) / float64(len(top))
		}
		if heatTotal > 0 {
			r.HeatRecall = float64(heatHit) / float64(heatTotal)
		}
		if len(samp) > 0 {
			r.Precision = float64(precHit) / float64(len(samp))
		}
		out = append(out, r)
	}
	return out, nil
}

// PaperSamplingConfig returns the paper's awake-phase counters (0.5%
// sampling in bursts of 60) with hibernation effectively disabled, so a
// short captured trace is sampled at the anchor rate throughout instead of
// spending most of its references hibernating. The full awake/hibernate
// alternation is exercised by the overhead experiments (Figure 11) and the
// service-level burst front end; here the question is purely what a 0.5%
// sample preserves.
func PaperSamplingConfig() burst.Config {
	cfg := burst.PaperConfig()
	cfg.NAwake0 = 1 << 30
	return cfg
}

// ScaledSamplingConfig returns a 5% sampling rate with the paper's burst
// length, awake-only for the same reason. Burst length is the lever that
// decides whether sampling sees streams at all: a burst must span at least
// two consecutive instances of a hot stream (~2.5x the §4.1 stream lengths)
// for Sequitur to observe the repetition inside one window — the paper's
// 60-reference bursts clear that bar for its 10–100 element streams, while
// e.g. 20-reference bursts at the same rate find almost nothing.
func ScaledSamplingConfig() burst.Config {
	cfg := PaperSamplingConfig()
	cfg.NCheck0 = 1140 // 60 instrumented per 1200 checks = 5%
	return cfg
}
