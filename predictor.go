package hotprefetch

import (
	"fmt"
	"sort"
	"sync"

	"hotprefetch/internal/markov"
	"hotprefetch/internal/ref"
	"hotprefetch/internal/stride"
)

// Predictor is one point in the prefetch-predictor design space: it consumes
// the reference stream one observation at a time and returns the addresses
// worth prefetching plus the detection cost the observation paid (the
// DFSM's comparison count, a Markov table's probe count, a stride table's
// CAM occupancy — always >= 1).
//
// Training happens at construction (see NewPredictor): a predictor is built
// over a hot-stream set and is immutable apart from its rolling match state,
// which Reset returns to the start. Built over an empty stream set, every
// implementation must behave as pass-through — no prefetch ever, one
// comparison per observation — because that is the deoptimized state the
// Supervisor swaps in (§5).
//
// Implementations follow Matcher's contracts: not safe for concurrent use
// (wrap in ConcurrentMatcher), and returned prefetch slices alias internal
// state and are valid only until the next Observe. Accuracy accounting is
// not the predictor's job: ConcurrentMatcher keeps the one ledger (see
// ConcurrentMatcher.EnableAccuracyTracking), so every implementation is
// measured by the same books.
type Predictor interface {
	Observe(r Ref) (prefetch []uint64, comparisons int)
	Reset()
}

// PredictorFactory builds a trained predictor over a hot-stream set.
// headLen is the stream head length in references (see NewMatcher);
// implementations that have no prefix/suffix split are free to ignore it.
// An empty or nil stream set must yield a pass-through predictor, not an
// error.
type PredictorFactory func(streams []Stream, headLen int) (Predictor, error)

var (
	predictorMu  sync.RWMutex
	predictorReg = make(map[string]PredictorFactory)
)

// RegisterPredictor adds a named predictor implementation to the registry.
// Registering a name twice panics: the registry is process-global and a
// silent override would change every matcher later built under the name.
// Tests registering throwaway predictors should use distinct names.
func RegisterPredictor(name string, f PredictorFactory) {
	if name == "" || f == nil {
		panic("hotprefetch: RegisterPredictor needs a name and a factory")
	}
	predictorMu.Lock()
	defer predictorMu.Unlock()
	if _, dup := predictorReg[name]; dup {
		panic(fmt.Sprintf("hotprefetch: predictor %q already registered", name))
	}
	predictorReg[name] = f
}

// NewPredictor builds a trained instance of the named predictor.
func NewPredictor(name string, streams []Stream, headLen int) (Predictor, error) {
	predictorMu.RLock()
	f := predictorReg[name]
	predictorMu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("hotprefetch: unknown predictor %q (registered: %v)",
			name, PredictorNames())
	}
	return f(streams, headLen)
}

// PredictorNames returns the registered predictor names, sorted.
func PredictorNames() []string {
	predictorMu.RLock()
	defer predictorMu.RUnlock()
	names := make([]string, 0, len(predictorReg))
	for n := range predictorReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DefaultPredictor is the registry name of the paper's DFSM prefix matcher,
// the predictor NewConcurrentMatcher installs.
const DefaultPredictor = "dfsm"

func init() {
	RegisterPredictor(DefaultPredictor, func(streams []Stream, headLen int) (Predictor, error) {
		return NewMatcher(streams, headLen)
	})
	RegisterPredictor("markov", func(streams []Stream, headLen int) (Predictor, error) {
		p, err := markov.New(toMarkovStreams(streams), markov.Config{})
		if err != nil {
			return nil, err
		}
		return &corePredictor{observe: p.Observe, reset: p.Reset}, nil
	})
	RegisterPredictor("stride", func(streams []Stream, headLen int) (Predictor, error) {
		p, err := stride.New(toStrideStreams(streams), stride.Config{})
		if err != nil {
			return nil, err
		}
		return &corePredictor{observe: p.Observe, reset: p.Reset}, nil
	})
}

func toMarkovStreams(streams []Stream) []markov.Stream {
	out := make([]markov.Stream, len(streams))
	for i, s := range streams {
		out[i] = markov.Stream{Refs: toRefs(s.Refs), Heat: s.Heat}
	}
	return out
}

func toStrideStreams(streams []Stream) []stride.Stream {
	out := make([]stride.Stream, len(streams))
	for i, s := range streams {
		out[i] = stride.Stream{Refs: toRefs(s.Refs), Heat: s.Heat}
	}
	return out
}

func toRefs(rs []Ref) []ref.Ref {
	out := make([]ref.Ref, len(rs))
	for i, r := range rs {
		out[i] = ref.Ref{PC: r.PC, Addr: r.Addr}
	}
	return out
}

// corePredictor adapts an internal predictor core (markov, stride), which
// observes internal ref.Ref values, to the Predictor interface.
type corePredictor struct {
	observe func(ref.Ref) ([]uint64, int)
	reset   func()
}

func (c *corePredictor) Observe(r Ref) (prefetch []uint64, comparisons int) {
	return c.observe(ref.Ref{PC: r.PC, Addr: r.Addr})
}

func (c *corePredictor) Reset() { c.reset() }
