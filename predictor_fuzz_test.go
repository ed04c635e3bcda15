package hotprefetch_test

// FuzzPredictorObserve feeds arbitrary byte strings through the full
// predictor pipeline: the input decodes into a training stream and an
// observation trace, a fuzzer-chosen implementation is built over the
// stream, and the trace replays through two independent instances — one
// behind ConcurrentMatcher with its accuracy ledger, one bare. The
// invariants are the conformance suite's, checked on adversarial input:
// no panic anywhere, comparisons charged exactly where the predictor has
// detection code (0 elsewhere), bit-exact agreement between the twin
// instances, and accuracy books that balance.

import (
	"reflect"
	"testing"

	"hotprefetch"
)

// decodeRefs turns fuzz bytes into references, 3 bytes per ref: one for the
// pc (small space, so streams repeat pcs) and two for the address (quantized
// so hits, strides, and page crossings all occur).
func decodeRefs(data []byte) []hotprefetch.Ref {
	out := make([]hotprefetch.Ref, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		out = append(out, hotprefetch.Ref{
			PC:   int(data[i] % 32),
			Addr: uint64(data[i+1])<<8 | uint64(data[i+2]),
		})
	}
	return out
}

func FuzzPredictorObserve(f *testing.F) {
	// Seeds: a strided walk, a repeating pointer chain, and noise — one per
	// predictor family's sweet spot, so coverage starts in interesting
	// states for all three implementations.
	f.Add([]byte{0, 4, 8, 1, 0x10, 0x00, 1, 0x10, 0x20, 1, 0x10, 0x40, 1, 0x10, 0x60, 1, 0x10, 0x80})
	f.Add([]byte{1, 9, 3, 2, 0xaa, 0x00, 3, 0xbb, 0x40, 4, 0xcc, 0x80, 2, 0xaa, 0x00, 3, 0xbb, 0x40, 4, 0xcc, 0x80})
	f.Add([]byte{2, 0, 1, 7, 0x01, 0x03, 5, 0x09, 0x02, 6, 0x7f, 0xff, 7, 0x01, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		// The built-in trio is spelled out rather than read from
		// PredictorNames(): other test files in this package register
		// deliberately-misbehaving predictors, and a fixed list keeps the
		// seed byte's mapping stable as registrations come and go.
		names := []string{"dfsm", "markov", "stride"}
		name := names[int(data[0])%len(names)]
		// data[1] is unused: it chose a ledger window when the window was a
		// setting. The layout stays so the checked-in seeds keep their
		// meaning.
		heat := uint64(data[2]) // zero heat is a valid, interesting case
		refs := decodeRefs(data[3:])
		if len(refs) == 0 {
			return
		}
		// First half trains, the whole sequence replays: the trace revisits
		// the trained region, so prefetch issue, hits and coalescing all
		// fire.
		var streams []hotprefetch.Stream
		if cut := len(refs) / 2; cut > 0 {
			streams = []hotprefetch.Stream{{Refs: refs[:cut], Heat: heat}}
		}
		a, err := hotprefetch.NewConcurrentPredictor(name, streams, 2)
		if err != nil {
			t.Fatalf("%s: build failed on fuzz streams: %v", name, err)
		}
		b, err := hotprefetch.NewPredictor(name, streams, 2)
		if err != nil {
			t.Fatalf("%s: twin build failed: %v", name, err)
		}
		// A reference has detection code when the DFSM instruments its pc,
		// or when a Markov or stride table holds trained state.
		heads := map[int]bool{}
		for _, pc := range a.PCs() {
			heads[pc] = true
		}
		table, isTable := b.(interface{ Trained() bool })
		detects := func(r hotprefetch.Ref) bool {
			if isTable {
				return table.Trained()
			}
			return heads[r.PC]
		}
		var issuedSum uint64
		for i, r := range refs {
			pfA, cmpA := a.Observe(r)
			pfB, cmpB := b.Observe(r)
			if want := detects(r); cmpA < 0 || (cmpA > 0) != want {
				t.Fatalf("%s: comparisons = %d at ref %d (pc %d), detection code here: %v", name, cmpA, i, r.PC, want)
			}
			if cmpA != cmpB || !reflect.DeepEqual(pfA, pfB) {
				t.Fatalf("%s: twins diverged at ref %d: (%v, %d) != (%v, %d)",
					name, i, pfA, cmpA, pfB, cmpB)
			}
			issuedSum += uint64(len(pfA))
		}
		issued, hits, outstanding, dropped := a.AccuracyBooks()
		if issued != hits+outstanding+dropped {
			t.Fatalf("%s: books do not balance: issued=%d hits=%d outstanding=%d dropped=%d",
				name, issued, hits, outstanding, dropped)
		}
		if issued != issuedSum {
			t.Fatalf("%s: ledger issued=%d, observed %d", name, issued, issuedSum)
		}
		cIssued, cHits := a.AccuracyCounters()
		if cIssued != issued || cHits != hits {
			t.Fatalf("%s: AccuracyCounters (%d, %d) disagree with books (%d, %d)",
				name, cIssued, cHits, issued, hits)
		}
	})
}
