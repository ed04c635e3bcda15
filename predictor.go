package hotprefetch

import "hotprefetch/internal/predictor"

// Predictor is one point in the prefetch-predictor design space: it consumes
// the reference stream one observation at a time and returns the addresses
// worth prefetching plus the detection cost the observation paid (the
// DFSM's comparison count, a Markov table's probe count, a stride table's
// CAM occupancy).
//
// The charge rule: a reference costs the comparisons its detection code
// executes, so a reference with no detection code costs 0 — the DFSM's
// un-instrumented pcs, and every reference a pass-through predictor sees.
// internal/memsim's Replay charges exactly this, one cycle per comparison.
//
// Training happens at construction (see NewPredictor): a predictor is built
// over a hot-stream set and is immutable apart from its rolling match state,
// which Reset returns to the start. Built over an empty stream set, every
// implementation must behave as pass-through — no prefetch ever, 0
// comparisons per observation — because that is the deoptimized state the
// Supervisor swaps in, and deoptimization removes the detection code (§5).
//
// Implementations follow Matcher's contracts: not safe for concurrent use
// (wrap in ConcurrentMatcher), and returned prefetch slices alias internal
// state and are valid only until the next Observe. Accuracy accounting is
// not the predictor's job: ConcurrentMatcher keeps the one ledger (see
// ConcurrentMatcher.AccuracyBooks), so every implementation is measured by
// the same books.
type Predictor = predictor.Predictor

// PredictorFactory builds a trained predictor over a hot-stream set.
// headLen is the stream head length in references (see NewMatcher);
// implementations that have no prefix/suffix split are free to ignore it.
// An empty or nil stream set must yield a pass-through predictor, not an
// error.
type PredictorFactory = predictor.Factory

// RegisterPredictor adds a named predictor implementation to the registry
// internal/predictor keeps — the same one the offline head-to-head
// (cmd/figures -ablation predictors) iterates. Registering a name twice
// panics: the registry is process-global and a silent override would change
// every matcher later built under the name. Tests registering throwaway
// predictors should use distinct names.
func RegisterPredictor(name string, f PredictorFactory) { predictor.Register(name, f) }

// NewPredictor builds a trained instance of the named predictor.
func NewPredictor(name string, streams []Stream, headLen int) (Predictor, error) {
	return predictor.New(name, streams, headLen)
}

// PredictorNames returns the registered predictor names, sorted.
func PredictorNames() []string { return predictor.Names() }

// DefaultPredictor is the registry name of the paper's DFSM prefix matcher,
// the predictor NewConcurrentMatcher installs.
const DefaultPredictor = predictor.Default
