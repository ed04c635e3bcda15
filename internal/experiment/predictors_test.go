package experiment

import (
	"testing"

	"hotprefetch/internal/workload"
)

// TestPredictorComparisonCyclesNotAccuracy pins the head-to-head finding
// behind the single-predictor runtime: on the full run (catalog plus the
// extended workloads, default trace length) the DFSM costs the fewest
// simulated cycles on every workload, yet on vpr and health the Markov
// table scores the higher accuracy while costing more cycles — so a
// supervisor that promoted the more accurate predictor would promote the
// slower one.
func TestPredictorComparisonCyclesNotAccuracy(t *testing.T) {
	results, err := PredictorComparison(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]map[string]PredictorResult{}
	for _, r := range results {
		if cells[r.Workload] == nil {
			cells[r.Workload] = map[string]PredictorResult{}
		}
		cells[r.Workload][r.Predictor] = r
	}
	if want := len(workload.Catalog()) + len(workload.ExtendedNames()); len(cells) != want {
		t.Fatalf("full run covers %d workloads, want %d", len(cells), want)
	}
	for w, byName := range cells {
		dfsm := byName["dfsm"]
		for _, other := range []string{"markov", "stride"} {
			if o := byName[other]; dfsm.Cycles > o.Cycles {
				t.Errorf("%s: dfsm %d cycles > %s %d", w, dfsm.Cycles, other, o.Cycles)
			}
		}
	}
	for _, w := range []string{"vpr", "health"} {
		dfsm, markov := cells[w]["dfsm"], cells[w]["markov"]
		if markov.Accuracy <= dfsm.Accuracy || markov.Cycles <= dfsm.Cycles {
			t.Errorf("%s: markov accuracy %.3f, cycles %d vs dfsm accuracy %.3f, cycles %d; want markov more accurate and slower",
				w, markov.Accuracy, markov.Cycles, dfsm.Accuracy, dfsm.Cycles)
		}
	}
}
