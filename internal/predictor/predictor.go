// Package predictor is the one registry of prefetch-predictor
// implementations. The root package's Predictor API and the offline
// head-to-head in internal/experiment both build predictors through it, so
// a name means the same trained machine in the live matcher and in the
// ablation tables.
//
// The built-in implementations are the paper's DFSM prefix matcher
// (internal/dfsm), a Pangloss-style Markov table (internal/markov) and a
// stream/stride table (internal/stride); all three train on the same
// ref.Stream sets.
package predictor

import (
	"fmt"
	"sort"
	"sync"

	"hotprefetch/internal/dfsm"
	"hotprefetch/internal/markov"
	"hotprefetch/internal/ref"
	"hotprefetch/internal/stride"
)

// Predictor is one point in the prefetch-predictor design space: it
// consumes the reference stream one observation at a time and returns the
// addresses worth prefetching plus the detection cost the observation paid:
// the comparisons its detection code executed, 0 where it has none (an
// un-instrumented pc, an untrained predictor). See the root package's
// Predictor for the full contract.
type Predictor interface {
	Observe(r ref.Ref) (prefetch []uint64, comparisons int)
	Reset()
}

// Factory builds a trained predictor over a hot-stream set. An empty or nil
// stream set must yield a pass-through predictor (no prefetch, 0
// comparisons), not an error.
type Factory func(streams []ref.Stream, headLen int) (Predictor, error)

// Default is the registry name of the paper's DFSM prefix matcher.
const Default = "dfsm"

var (
	mu       sync.RWMutex
	registry = make(map[string]Factory)
)

// Register adds a named implementation. Registering a name twice panics: the
// registry is process-global and a silent override would change every
// predictor later built under the name.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("hotprefetch: RegisterPredictor needs a name and a factory")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("hotprefetch: predictor %q already registered", name))
	}
	registry[name] = f
}

// New builds a trained instance of the named implementation.
func New(name string, streams []ref.Stream, headLen int) (Predictor, error) {
	mu.RLock()
	f := registry[name]
	mu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("hotprefetch: unknown predictor %q (registered: %v)", name, Names())
	}
	return f(streams, headLen)
}

// Names returns the registered names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewMatcher builds the DFSM prefix matcher over streams. headLen is the
// prefix length that must match before prefetching is initiated; the paper
// finds 2 best (§4.3). Streams too short to have a prefetchable tail are
// ignored.
func NewMatcher(streams []ref.Stream, headLen int) (*dfsm.Matcher, error) {
	if headLen < 1 {
		return nil, fmt.Errorf("hotprefetch: headLen must be >= 1, got %d", headLen)
	}
	return dfsm.NewMatcher(dfsm.New(streams, headLen)), nil
}

// trained returns a build's result as a Predictor, keeping a failed build's
// typed nil pointer out of the interface.
func trained[P Predictor](p P, err error) (Predictor, error) {
	if err != nil {
		return nil, err
	}
	return p, nil
}

func init() {
	Register(Default, func(streams []ref.Stream, headLen int) (Predictor, error) {
		return trained(NewMatcher(streams, headLen))
	})
	Register("markov", func(streams []ref.Stream, _ int) (Predictor, error) {
		return trained(markov.New(streams, markov.Config{}))
	})
	Register("stride", func(streams []ref.Stream, _ int) (Predictor, error) {
		return trained(stride.New(streams, stride.Config{}))
	})
}
