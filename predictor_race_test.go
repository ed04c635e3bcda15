package hotprefetch_test

// Concurrency tests for the predictor zoo: hot-swapping any registered
// implementation must be safe while observer goroutines hammer Observe, and
// the matcher's accuracy ledger must balance exactly and never run
// backwards under that load. All run under -race in the concurrency CI job.

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hotprefetch"
	"hotprefetch/internal/predictortest"
)

// TestPredictorHotSwapRacesObserve mirrors TestMatcherHotSwapRacesObserve
// for each registered predictor: retrain between two stream sets while four
// goroutines observe. Under -race this validates that every implementation's
// publication path is torn-table free, not just the DFSM's, that every
// read of the ledger balances while swaps retire its outstanding window, and
// that the observation count, read mid-storm, ends exact.
func TestPredictorHotSwapRacesObserve(t *testing.T) {
	traceA, traceB := predictortest.Trace(1, 60), predictortest.Trace(2, 60)
	sets := [][]hotprefetch.Stream{
		predictortest.Streams(t, traceA),
		predictortest.Streams(t, traceB),
	}
	for _, name := range hotprefetch.PredictorNames() {
		if strings.HasPrefix(name, "test-") {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			cm, err := hotprefetch.NewConcurrentPredictor(name, sets[0], 2)
			if err != nil {
				t.Fatal(err)
			}
			cm.EnableAccuracyTracking(64)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var observed atomic.Uint64
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						for _, r := range traceA[:60] {
							cm.Observe(r)
						}
						for _, r := range traceB[:60] {
							cm.Observe(r)
						}
						observed.Add(120)
					}
				}()
			}
			const swaps = 50
			var lastIssued, lastHits, lastObserved uint64
			for i := 1; i <= swaps; i++ {
				if err := cm.Swap(sets[i%2]); err != nil {
					t.Error(err)
					break
				}
				issued, hits, outstanding, dropped := cm.AccuracyBooks()
				if issued != hits+outstanding+dropped {
					t.Fatalf("books do not balance mid-storm: issued=%d hits=%d outstanding=%d dropped=%d",
						issued, hits, outstanding, dropped)
				}
				if issued < lastIssued || hits < lastHits {
					t.Fatalf("ledger ran backwards: (%d, %d) after (%d, %d)", issued, hits, lastIssued, lastHits)
				}
				n := cm.Observations()
				if n < lastObserved {
					t.Fatalf("Observations ran backwards: %d after %d", n, lastObserved)
				}
				lastIssued, lastHits, lastObserved = issued, hits, n
			}
			close(stop)
			wg.Wait()
			if got, want := cm.Observations(), observed.Load(); got != want {
				t.Errorf("Observations = %d, want %d", got, want)
			}
			if got := cm.Swaps(); got != swaps {
				t.Errorf("Swaps = %d, want %d", got, swaps)
			}
			if got := cm.Predictor(); got != name {
				t.Errorf("published predictor = %q, want %q", got, name)
			}
			if cm.NumStates() < 2 {
				t.Errorf("NumStates = %d after trained swaps, want >= 2", cm.NumStates())
			}
		})
	}
}
