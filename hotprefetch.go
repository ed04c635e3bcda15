// Package hotprefetch is a reproduction of Chilimbi & Hirzel, "Dynamic Hot
// Data Stream Prefetching for General-Purpose Programs" (PLDI 2002), as a
// reusable Go library.
//
// The package exposes the paper's pipeline in two forms:
//
//   - Standalone algorithm components that work on any data reference
//     trace: an online temporal profile builder (Sequitur compression +
//     fast hot data stream extraction, paper §2) and a prefix-matching
//     engine that tracks all hot streams with one DFSM and reports the
//     addresses to prefetch (paper §3).
//
//   - A complete execution-substrate simulation — virtual ISA, two-level
//     cache hierarchy, bursty tracing, dynamic code injection — that
//     reproduces the paper's evaluation end to end (paper §4). See
//     RunBenchmark and the cmd/ tools.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured results.
package hotprefetch

import (
	"fmt"

	"hotprefetch/internal/dfsm"
	"hotprefetch/internal/hotds"
	"hotprefetch/internal/predictor"
	"hotprefetch/internal/ref"
	"hotprefetch/internal/sequitur"
)

// Ref is a single data reference: the program counter of a load or store
// and the address it touched (paper §2.1).
type Ref = ref.Ref

// Stream is a hot data stream: a reference sequence that frequently repeats
// in the same order, with its regularity magnitude Heat = length ×
// frequency (paper §2.3). Its Refs are read-only once produced: matchers
// and predictors built over a stream share them instead of copying.
type Stream = ref.Stream

// AnalysisConfig controls hot data stream detection.
type AnalysisConfig struct {
	// MinLen and MaxLen bound stream length in references.
	MinLen, MaxLen int
	// MinUnique is the minimum number of distinct references per stream
	// (the paper requires more than ten, §1). Zero disables the filter.
	MinUnique int
	// MinCoverage is the fraction of the profiled trace a stream must
	// account for (the paper uses 1%, §4.1). Ignored if Heat is set.
	MinCoverage float64
	// Heat is an explicit heat threshold overriding MinCoverage.
	Heat uint64
	// MaxStreams caps the result to the hottest streams (0 = no cap).
	MaxStreams int
}

// DefaultAnalysisConfig returns the paper's §4.1 settings: streams of more
// than ten unique references covering at least 1% of the trace, at most 100
// streams.
func DefaultAnalysisConfig() AnalysisConfig {
	c := hotds.DefaultConfig()
	return AnalysisConfig{
		MinLen:      int(c.MinLen),
		MaxLen:      int(c.MaxLen),
		MinUnique:   c.MinUnique,
		MinCoverage: c.MinCoverage,
		MaxStreams:  c.MaxStreams,
	}
}

// Validate reports whether the configuration is well-formed: no negative
// bounds or caps, MinLen <= MaxLen when both are set, and MinCoverage within
// [0, 1]. The analysis entry points clamp rather than fail (see internal),
// so Validate is the error path for callers that accept configurations from
// the outside — services, tools, RPC layers.
func (c AnalysisConfig) Validate() error {
	if c.MinLen < 0 || c.MaxLen < 0 {
		return fmt.Errorf("hotprefetch: negative stream length bound (MinLen=%d, MaxLen=%d)", c.MinLen, c.MaxLen)
	}
	if c.MaxLen > 0 && c.MinLen > c.MaxLen {
		return fmt.Errorf("hotprefetch: MinLen %d exceeds MaxLen %d", c.MinLen, c.MaxLen)
	}
	if c.MinUnique < 0 {
		return fmt.Errorf("hotprefetch: negative MinUnique %d", c.MinUnique)
	}
	if c.MinCoverage < 0 || c.MinCoverage > 1 {
		return fmt.Errorf("hotprefetch: MinCoverage %g outside [0, 1]", c.MinCoverage)
	}
	if c.MaxStreams < 0 {
		return fmt.Errorf("hotprefetch: negative MaxStreams %d", c.MaxStreams)
	}
	return nil
}

// internal converts to the analysis package's configuration, clamping values
// a plain uint64 conversion would corrupt: a negative MinLen or MaxLen would
// wrap to a huge unsigned bound and silently invert the filter's meaning.
func (c AnalysisConfig) internal() hotds.Config {
	minLen, maxLen := c.MinLen, c.MaxLen
	if minLen < 0 {
		minLen = 0
	}
	if maxLen < 0 {
		maxLen = 0
	}
	minUnique, maxStreams := c.MinUnique, c.MaxStreams
	if minUnique < 0 {
		minUnique = 0
	}
	if maxStreams < 0 {
		maxStreams = 0
	}
	minCoverage := c.MinCoverage
	if minCoverage < 0 {
		minCoverage = 0
	}
	return hotds.Config{
		MinLen:      uint64(minLen),
		MaxLen:      uint64(maxLen),
		MinUnique:   minUnique,
		MinCoverage: minCoverage,
		Heat:        c.Heat,
		MaxStreams:  maxStreams,
	}
}

// Profile is an online temporal data reference profile: references are
// appended one at a time and compressed incrementally into a Sequitur
// grammar (paper §2.3). Appending is amortized O(1); extraction of hot data
// streams is linear in the grammar size. Profile is not safe for concurrent
// use.
type Profile struct {
	grammar  *sequitur.Grammar
	interner *ref.Interner

	// prepass, when non-nil, is the two-level ingest front end AddBatch
	// routes through: immediate repeats collapse into doubling rules and
	// recently minted phrases replay as single rule symbols, so only
	// residual novel symbols reach the digram table. Grammars are then
	// equivalent to the lossless path after expansion, not bit-identical.
	prepass *sequitur.Prepass

	// symbuf is AddBatch's reusable interned-symbol scratch, so feeding a
	// burst through AppendRun stays allocation-free in steady state.
	symbuf []uint64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{
		grammar:  sequitur.New(),
		interner: ref.NewInterner(),
	}
}

// NewPrepassProfile returns an empty profile whose AddBatch path runs the
// two-level ingest front end (run collapsing + phrase-rule replay) ahead of
// grammar compression, with the front end's default window, run and cache
// sizes. Snapshot expansion, and therefore every extracted hot stream, is
// identical to a profile built without the front end; the grammars themselves
// are not bit-identical. See DESIGN.md §12.
func NewPrepassProfile() *Profile {
	p := NewProfile()
	p.prepass = sequitur.NewPrepass(p.grammar, sequitur.PrepassConfig{})
	return p
}

// Add appends one data reference to the profile.
func (p *Profile) Add(r Ref) {
	p.grammar.Append(uint64(p.interner.Intern(r)))
}

// AddBatch appends a burst of references in order — the batch entry point
// mirroring how bursty tracing delivers references in bursts rather than
// singletons (§2.2). The burst is interned in one pass and compressed with
// one batch-aware grammar run (sequitur.AppendRun), which amortizes
// digram-table epochs and hashing across the burst; the resulting profile is
// identical to per-reference Add calls.
func (p *Profile) AddBatch(refs []Ref) {
	if len(refs) == 0 {
		return
	}
	if cap(p.symbuf) < len(refs) {
		p.symbuf = make([]uint64, len(refs))
	}
	buf := p.symbuf[:len(refs)]
	for i, r := range refs {
		buf[i] = uint64(p.interner.Intern(r))
	}
	if p.prepass != nil {
		p.prepass.Append(buf)
		return
	}
	p.grammar.AppendRun(buf)
}

// Collapsed returns the number of references the ingest front end absorbed
// without a digram-table epoch (zero for profiles built with NewProfile).
func (p *Profile) Collapsed() uint64 {
	if p.prepass == nil {
		return 0
	}
	return p.prepass.Collapsed()
}

// MintedRules returns the number of phrase and run rules the ingest front
// end has minted directly (zero for profiles built with NewProfile).
func (p *Profile) MintedRules() uint64 {
	if p.prepass == nil {
		return 0
	}
	return p.prepass.Minted()
}

// AddAll appends each reference in order.
func (p *Profile) AddAll(refs []Ref) { p.AddBatch(refs) }

// Len returns the number of references added so far.
func (p *Profile) Len() uint64 { return p.grammar.Len() }

// Reset discards the profile's grammar and interner contents while retaining
// their allocated capacity — the paper's end-of-cycle grammar deallocation
// (§5), which bounds the memory of a long-running profiling loop. Extract
// hot streams first; they remain valid after the reset because streams carry
// concrete references, not interned symbols.
func (p *Profile) Reset() {
	p.grammar.Reset()
	p.interner.Reset()
	if p.prepass != nil {
		// Cached rule indices die with the grammar; the front end must
		// forget them before the next cycle reuses the arena slots.
		p.prepass.Reset()
	}
}

// GrammarSize returns the size of the underlying Sequitur grammar — the
// quantity hot data stream analysis is linear in.
func (p *Profile) GrammarSize() int { return p.grammar.Size() }

// Snapshot is a point-in-time view of a profile's grammar for analysis.
// An optimize pass that wants both the fast and the precise detector on the
// same profile takes one Snapshot and runs both detectors on it, instead of
// re-walking the grammar per detector as the profile-level entry points do.
//
// A snapshot stays valid while the profile grows, but not across
// Profile.Reset: streams are resolved through the profile's interner, which
// Reset recycles.
type Snapshot struct {
	p    *Profile
	snap *sequitur.Snapshot
}

// Snapshot captures the profile's grammar once for repeated analysis.
func (p *Profile) Snapshot() *Snapshot {
	return &Snapshot{p: p, snap: p.grammar.Snapshot()}
}

// Len returns the number of references the snapshot covers.
func (s *Snapshot) Len() uint64 { return s.snap.InputLen }

// HotStreams extracts the snapshot's hot data streams using the paper's fast
// approximation algorithm (Figure 5), hottest first.
func (s *Snapshot) HotStreams(cfg AnalysisConfig) []Stream {
	infos := hotds.Analyze(s.snap, cfg.internal())
	return s.p.toStreams(infos)
}

// HotStreamsPrecise extracts hot data streams with the exact (Larus-style)
// detector over the reconstructed trace. It is slower than HotStreams but
// also finds streams that straddle the grammar's rule boundaries (§2.3).
func (s *Snapshot) HotStreamsPrecise(cfg AnalysisConfig) []Stream {
	trace := s.snap.Expand(0)
	infos := hotds.PreciseAnalyze(trace, cfg.internal())
	return s.p.toStreams(infos)
}

// HotStreams extracts the profile's hot data streams using the paper's fast
// approximation algorithm (Figure 5), hottest first. The profile can
// continue to grow afterwards. To run more than one detector over the same
// moment, take a Snapshot and analyze that instead.
func (p *Profile) HotStreams(cfg AnalysisConfig) []Stream {
	return p.Snapshot().HotStreams(cfg)
}

// HotStreamsPrecise extracts hot data streams with the exact (Larus-style)
// detector; see Snapshot.HotStreamsPrecise.
func (p *Profile) HotStreamsPrecise(cfg AnalysisConfig) []Stream {
	return p.Snapshot().HotStreamsPrecise(cfg)
}

func (p *Profile) toStreams(infos []hotds.StreamInfo) []Stream {
	out := make([]Stream, len(infos))
	for i, info := range infos {
		out[i] = p.interner.Stream(info.Word, info.Heat)
	}
	return out
}

// Matcher tracks the matching prefixes of a set of hot data streams with a
// single DFSM (paper §3.1, Figures 7-9). Feed it data references; when a
// stream's head completes, Observe returns the remaining stream addresses
// to prefetch, with the number of comparisons the generated detection code
// would have executed — the matching overhead the paper charges against
// prefetching gains. Detection code exists only at the streams' head pcs
// (PCs), so a reference at any other pc costs 0 comparisons; it only
// resets the match.
type Matcher = dfsm.Matcher

// NewMatcher builds the combined prefix-matching DFSM for the given streams.
// headLen is the prefix length that must match before prefetching is
// initiated; the paper finds 2 best (§4.3). Streams too short to have a
// prefetchable tail are ignored.
func NewMatcher(streams []Stream, headLen int) (*Matcher, error) {
	return predictor.NewMatcher(streams, headLen)
}
