package experiment

import (
	"fmt"
	"strings"

	"hotprefetch/internal/ref"
	"hotprefetch/internal/workload"
)

// StabilityResult reports how similar a benchmark's hot data streams are
// across two different inputs. Streams are compared by their pc signatures
// (the instruction sequence that produces them): the paper's intro cites
// [10]'s finding that "hot data streams have been shown to be fairly stable
// across program inputs and could serve as the basis for an off-line static
// prefetching scheme". Addresses differ across inputs; the code paths do
// not.
type StabilityResult struct {
	Name     string
	StreamsA int
	StreamsB int
	PCSigs   int     // distinct pc signatures across both inputs
	Overlap  float64 // Jaccard similarity of the pc-signature sets
	Concrete float64 // Jaccard similarity of the full (pc, addr) stream identities
}

// collectStreams profiles the first refs references of the benchmark and
// returns its hot data streams.
func collectStreams(p workload.Params, refs int) ([]ref.Stream, error) {
	trace, err := workload.Build(p).Capture(refs)
	if err != nil {
		return nil, err
	}
	return analyzeTraceRefs(trace, AnalysisConfig()), nil
}

// pcSignature canonicalizes a stream to its instruction sequence.
func pcSignature(stream []ref.Ref) string {
	var b strings.Builder
	for _, r := range stream {
		fmt.Fprintf(&b, "%d,", r.PC)
	}
	return b.String()
}

// ProfileStability profiles each benchmark on two different inputs (layout
// and schedule seeds) and compares the detected hot data streams: pc
// signatures should overlap strongly while concrete addresses do not — the
// property that makes profile-driven static prefetching viable and that the
// dynamic scheme does not depend on.
func ProfileStability(params []workload.Params, refs int) ([]StabilityResult, error) {
	if params == nil {
		params = workload.Catalog()
	}
	if refs <= 0 {
		refs = 60000
	}
	out := make([]StabilityResult, 0, len(params))
	for _, p := range params {
		alt := p
		alt.Seed += 77777 // a different "program input"

		a, err := collectStreams(p, refs)
		if err != nil {
			return nil, fmt.Errorf("%s input A: %w", p.Name, err)
		}
		b, err := collectStreams(alt, refs)
		if err != nil {
			return nil, fmt.Errorf("%s input B: %w", p.Name, err)
		}

		sigA, fullA := signatureSets(a)
		sigB, fullB := signatureSets(b)
		out = append(out, StabilityResult{
			Name:     p.Name,
			StreamsA: len(a),
			StreamsB: len(b),
			PCSigs:   unionSize(sigA, sigB),
			Overlap:  jaccard(sigA, sigB),
			Concrete: jaccard(fullA, fullB),
		})
	}
	return out, nil
}

// signatureSets extracts each stream's pc signature and its full concrete
// identity (pcs and addresses).
func signatureSets(streams []ref.Stream) (sigs, full map[string]bool) {
	sigs = map[string]bool{}
	full = map[string]bool{}
	for _, s := range streams {
		sigs[pcSignature(s.Refs)] = true
		var b strings.Builder
		for _, r := range s.Refs {
			fmt.Fprintf(&b, "%d:%d,", r.PC, r.Addr)
		}
		full[b.String()] = true
	}
	return sigs, full
}

func unionSize[K comparable](a, b map[K]bool) int {
	u := map[K]bool{}
	for k := range a {
		u[k] = true
	}
	for k := range b {
		u[k] = true
	}
	return len(u)
}

func jaccard[K comparable](a, b map[K]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	return float64(inter) / float64(unionSize(a, b))
}
