package experiment

import (
	"fmt"
	"strings"

	"hotprefetch/internal/hotds"
	"hotprefetch/internal/machine"
	"hotprefetch/internal/ref"
	"hotprefetch/internal/sequitur"
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

// collector traces the first `budget` data references of a run.
type collector struct {
	grammar  *sequitur.Grammar
	interner *ref.Interner
	budget   int
	m        *machine.Machine
}

func (c *collector) Check(pc int) (machine.Version, uint64) {
	return machine.VersionInstrumented, 0
}

func (c *collector) TraceRef(pc int, addr machine.Word, isWrite bool) uint64 {
	c.grammar.Append(uint64(c.interner.Intern(ref.Ref{PC: pc, Addr: addr})))
	c.budget--
	if c.budget <= 0 {
		c.m.Yield()
	}
	return 0
}

func (c *collector) Match(pc int, addr machine.Word) ([]machine.Word, uint64) {
	return nil, 0
}

// collectStreams profiles `refs` references of the benchmark and returns
// its hot data streams.
func collectStreams(p workload.Params, refs int) ([][]ref.Ref, error) {
	inst := workload.Build(p)
	m := inst.NewMachine(workload.CacheConfig(), true)
	col := &collector{
		grammar:  sequitur.New(),
		interner: ref.NewInterner(),
		budget:   refs,
		m:        m,
	}
	m.RT = col
	m.Start()
	for col.budget > 0 {
		st, err := m.Run(0)
		if err != nil {
			return nil, err
		}
		if st == machine.Halted {
			break
		}
	}
	infos := hotds.Analyze(col.grammar.Snapshot(), AnalysisConfig())
	streams := make([][]ref.Ref, len(infos))
	for i, info := range infos {
		streams[i] = col.interner.Stream(info.Word, info.Heat).Refs
	}
	return streams, nil
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
func signatureSets(streams [][]ref.Ref) (sigs, full map[string]bool) {
	sigs = map[string]bool{}
	full = map[string]bool{}
	for _, s := range streams {
		sigs[pcSignature(s)] = true
		var b strings.Builder
		for _, r := range s {
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
