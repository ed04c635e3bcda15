// Webcache: apply hot data stream prefetching outside the CPU cache domain.
//
// A content server observes requests for objects (template fragments, user
// records, assets). Sessions of the same kind fetch the same objects in the
// same order — hot data streams at the request level. This example profiles
// the request log, detects the streams, and uses the prefix matcher to warm
// a backend cache: after the first two requests of a known session shape,
// the remaining objects are fetched before they are asked for.
//
//	go run ./examples/webcache
package main

import (
	"fmt"
	"math/rand"

	"hotprefetch"
)

// Object identifiers double as "addresses"; the handler that fetched the
// object is the "pc". A request is therefore a data reference.
type object = uint64

const (
	handlerPage  = 1 // page renderer
	handlerUser  = 2 // user-record fetcher
	handlerAsset = 3 // asset resolver
)

// sessionShapes are the object sequences typical session kinds request.
var sessionShapes = [][]hotprefetch.Ref{
	makeShape("landing", handlerPage, 1000, 14),
	makeShape("checkout", handlerUser, 2000, 18),
	makeShape("dashboard", handlerAsset, 3000, 12),
}

func makeShape(name string, handler int, base object, n int) []hotprefetch.Ref {
	refs := make([]hotprefetch.Ref, n)
	for i := range refs {
		refs[i] = hotprefetch.Ref{PC: handler, Addr: base + object(i)}
	}
	return refs
}

func main() {
	rng := rand.New(rand.NewSource(7))

	// Phase 1: profile a day of traffic. Most requests follow one of the
	// session shapes; some are one-off lookups.
	profile := hotprefetch.NewProfile()
	var replay []hotprefetch.Ref
	for i := 0; i < 400; i++ {
		if rng.Intn(10) == 0 {
			r := hotprefetch.Ref{PC: 9, Addr: object(50000 + rng.Intn(10000))}
			profile.Add(r)
			replay = append(replay, r)
			continue
		}
		shape := sessionShapes[rng.Intn(len(sessionShapes))]
		profile.AddBatch(shape)
		replay = append(replay, shape...)
	}

	streams := profile.HotStreams(hotprefetch.AnalysisConfig{
		MinLen: 8, MaxLen: 64, MinUnique: 8, MinCoverage: 0.01, MaxStreams: 10,
	})
	fmt.Printf("request log: %d requests -> %d hot request streams\n",
		profile.Len(), len(streams))
	for i, s := range streams {
		fmt.Printf("  stream %d: %d objects, %.0f%% of traffic\n",
			i+1, len(s.Refs), 100*s.Coverage(profile.Len()))
	}

	// Phase 2: serve live traffic with stream-driven cache warming.
	matcher, err := hotprefetch.NewMatcher(streams, 2)
	if err != nil {
		panic(err)
	}
	warm := map[object]bool{}
	var hits, misses, warmed int
	for _, req := range replay {
		if warm[req.Addr] {
			hits++
		} else {
			misses++
			warm[req.Addr] = true // fetched on demand, now cached
		}
		if prefetch, _ := matcher.Observe(req); prefetch != nil {
			for _, obj := range prefetch {
				if !warm[obj] {
					warm[obj] = true
					warmed++
				}
			}
		}
	}
	total := hits + misses
	fmt.Printf("\nreplaying traffic with stream-driven warming:\n")
	fmt.Printf("  %d requests, %d served warm (%.0f%%), %d cold\n",
		total, hits, 100*float64(hits)/float64(total), misses)
	fmt.Printf("  %d objects warmed ahead of first use\n", warmed)
}
