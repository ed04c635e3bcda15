// Quickstart: profile a data reference trace, extract its hot data streams,
// and drive the prefix-matching engine — the paper's §2 and §3 pipeline on
// user-supplied data.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"

	"hotprefetch"
)

func main() {
	// A program that repeatedly traverses two linked structures. Each
	// traversal produces the same (pc, addr) sequence — a hot data stream —
	// with unrelated references in between.
	listA := traversal(100, 0x10000, 16) // 16-node list, loads at pcs 100..
	treeB := traversal(300, 0x40000, 12) // 12-node path, loads at pcs 300..
	rng := rand.New(rand.NewSource(42))

	profile := hotprefetch.NewProfile()
	for lap := 0; lap < 50; lap++ {
		profile.AddBatch(listA)
		profile.Add(noise(rng))
		profile.AddBatch(treeB)
		profile.Add(noise(rng))
	}

	// Extract hot data streams with the paper's default thresholds:
	// more than ten unique references, covering at least 1% of the trace.
	streams := profile.HotStreams(hotprefetch.DefaultAnalysisConfig())
	fmt.Printf("profiled %d references -> %d hot data streams\n\n", profile.Len(), len(streams))
	for i, s := range streams {
		fmt.Printf("stream %d: %d refs, heat %d, %.0f%% of trace\n",
			i+1, len(s.Refs), s.Heat, 100*s.Coverage(profile.Len()))
	}

	// Build the combined prefix-matching DFSM (headLen = 2, the paper's
	// §4.3 choice) and replay one traversal: after the first two references
	// match, the engine hands back the remaining addresses to prefetch.
	matcher, err := hotprefetch.NewMatcher(streams, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nDFSM: %d states, %d transitions, detection code at %d pcs\n",
		matcher.NumStates(), matcher.NumTransitions(), len(matcher.PCs()))

	for i, r := range listA {
		prefetch, comparisons := matcher.Observe(r)
		if prefetch != nil {
			fmt.Printf("\nafter %d references (%d comparisons), prefetch %d addresses:\n",
				i+1, comparisons, len(prefetch))
			for j, a := range prefetch {
				if j == 6 {
					fmt.Println("  ...")
					break
				}
				fmt.Printf("  0x%x\n", a)
			}
			break
		}
	}
}

// traversal fabricates the reference sequence of one pointer-structure walk:
// one load pc and one object address per step.
func traversal(pcBase int, addrBase uint64, n int) []hotprefetch.Ref {
	refs := make([]hotprefetch.Ref, n)
	for i := range refs {
		refs[i] = hotprefetch.Ref{PC: pcBase + 2*i, Addr: addrBase + uint64(i)*96}
	}
	return refs
}

// noise fabricates an unrelated one-off reference.
func noise(rng *rand.Rand) hotprefetch.Ref {
	return hotprefetch.Ref{PC: 9000 + rng.Intn(100), Addr: uint64(rng.Intn(1 << 24))}
}
