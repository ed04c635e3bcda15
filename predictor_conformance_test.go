package hotprefetch_test

// Differential conformance for the predictor zoo: every registered
// implementation passes the shared contract suite, and the DFSM reached
// through the Predictor registry is bit-identical to the pre-refactor
// direct matcher on the full workload catalog — the refactor moved code,
// not behavior.

import (
	"reflect"
	"strings"
	"testing"

	"hotprefetch"
	"hotprefetch/internal/predictortest"
	"hotprefetch/internal/workload"
)

// TestPredictorConformance runs the contract suite over every registered
// predictor. Test-only predictors (registered by other test files in this
// package with a "test-" prefix) are excluded: they exist to misbehave.
func TestPredictorConformance(t *testing.T) {
	trace := predictortest.Trace(1, 60)
	streams := predictortest.Streams(t, trace)
	for _, name := range hotprefetch.PredictorNames() {
		if strings.HasPrefix(name, "test-") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			predictortest.Conformance(t, name, streams, trace)
		})
	}
}

// TestRegistryCoversBuiltins pins the registry surface: the three built-in
// implementations are registered, the default resolves, and unknown names
// fail with a useful error.
func TestRegistryCoversBuiltins(t *testing.T) {
	names := hotprefetch.PredictorNames()
	for _, want := range []string{"dfsm", "markov", "stride"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("built-in predictor %q not registered (have %v)", want, names)
		}
	}
	if _, err := hotprefetch.NewPredictor(hotprefetch.DefaultPredictor, nil, 2); err != nil {
		t.Fatalf("default predictor does not build: %v", err)
	}
	if _, err := hotprefetch.NewPredictor("no-such-predictor", nil, 2); err == nil {
		t.Fatal("unknown predictor name built successfully")
	}
}

// TestDFSMThroughInterfaceBitIdentical replays every catalog workload
// through the direct *Matcher and through the registry-built "dfsm"
// Predictor (standalone and behind ConcurrentMatcher): prefetch sequences
// and comparison counts must be bit-identical on all of them. This is the
// acceptance gate for the interface carve-out.
func TestDFSMThroughInterfaceBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog differential replay")
	}
	analysis := hotprefetch.AnalysisConfig{MinLen: 2, MaxLen: 100, MinCoverage: 0.02}
	for _, p := range workload.Catalog() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			trace, err := workload.Build(p).Capture(30000)
			if err != nil {
				t.Fatal(err)
			}
			cut := len(trace) * 60 / 100
			prof := hotprefetch.NewProfile()
			prof.AddBatch(trace[:cut])
			streams := prof.HotStreams(analysis)
			if len(streams) == 0 {
				t.Skipf("%s: no hot streams at this trace length", p.Name)
			}

			direct, err := hotprefetch.NewMatcher(streams, 2)
			if err != nil {
				t.Fatal(err)
			}
			viaRegistry, err := hotprefetch.NewPredictor("dfsm", streams, 2)
			if err != nil {
				t.Fatal(err)
			}
			viaConcurrent, err := hotprefetch.NewConcurrentPredictor("dfsm", streams, 2)
			if err != nil {
				t.Fatal(err)
			}

			issued := 0
			for i, r := range trace[cut:] {
				pf0, c0 := direct.Observe(r)
				pf1, c1 := viaRegistry.Observe(r)
				pf2, c2 := viaConcurrent.Observe(r)
				if c0 != c1 || !reflect.DeepEqual(pf0, pf1) {
					t.Fatalf("ref %d: direct (%v, %d) != registry (%v, %d)", i, pf0, c0, pf1, c1)
				}
				if c0 != c2 || !reflect.DeepEqual(pf0, pf2) {
					t.Fatalf("ref %d: direct (%v, %d) != concurrent (%v, %d)", i, pf0, c0, pf2, c2)
				}
				issued += len(pf0)
			}
			if issued == 0 {
				t.Logf("%s: matcher issued no prefetches on the eval split", p.Name)
			}
		})
	}
}
