// Adaptive: track program phase changes the way the paper's dynamic scheme
// does (§1: "for programs with distinct phase behavior, a dynamic
// prefetching scheme that adapts to program phase transitions may perform
// better").
//
// The simulated program alternates between two phases touching disjoint
// structures. A static, profile-once approach keeps prefetching phase-A
// streams forever; the adaptive approach re-profiles in windows — the
// library-level equivalent of the paper's profile/optimize/hibernate cycle —
// and its stream set follows the phase.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"

	"hotprefetch"
)

func phaseTrace(pcBase int, addrBase uint64, streams, length, laps int) []hotprefetch.Ref {
	var out []hotprefetch.Ref
	for lap := 0; lap < laps; lap++ {
		for s := 0; s < streams; s++ {
			for i := 0; i < length; i++ {
				out = append(out, hotprefetch.Ref{
					PC:   pcBase + s*100 + i,
					Addr: addrBase + uint64(s)*4096 + uint64(i)*64,
				})
			}
		}
	}
	return out
}

func main() {
	cfg := hotprefetch.AnalysisConfig{MinLen: 10, MaxLen: 60, MinUnique: 10, MinCoverage: 0.02}

	// The program: 3 windows of phase A, then 3 windows of phase B.
	var windows [][]hotprefetch.Ref
	for i := 0; i < 3; i++ {
		windows = append(windows, phaseTrace(1000, 0x100000, 4, 14, 10))
	}
	for i := 0; i < 3; i++ {
		windows = append(windows, phaseTrace(5000, 0x900000, 4, 14, 10))
	}

	// Static scheme: profile window 0, prefetch those streams forever.
	static := hotprefetch.NewProfile()
	static.AddAll(windows[0])
	staticStreams := static.HotStreams(cfg)

	fmt.Println("window  phase  static-useful  adaptive-useful  adaptive-streams")
	for w, trace := range windows {
		phase := "A"
		if w >= 3 {
			phase = "B"
		}

		// Adaptive scheme: re-profile this window (the awake phase), then
		// match over it (the hibernation).
		adaptiveProfile := hotprefetch.NewProfile()
		adaptiveProfile.AddAll(trace)
		adaptiveStreams := adaptiveProfile.HotStreams(cfg)

		fmt.Printf("%-7d %-6s %-14d %-16d %d\n",
			w, phase,
			usefulPrefetches(staticStreams, trace),
			usefulPrefetches(adaptiveStreams, trace),
			len(adaptiveStreams))
	}
	fmt.Println("\nthe static stream set goes stale at the phase boundary; the adaptive")
	fmt.Println("re-profiling cycle keeps issuing useful prefetches in both phases.")

	supervised(windows)
}

// supervised runs the same phased program through the Supervisor, which
// closes the paper's loop automatically: it optimizes from banked grammar
// cycles, measures prefetch accuracy in windows, deoptimizes to a
// pass-through matcher when the phase shift drags accuracy under the floor,
// and re-optimizes from fresh evidence — no manual Swap calls anywhere.
func supervised(windows [][]hotprefetch.Ref) {
	svc, err := hotprefetch.NewShardedProfileConfig(hotprefetch.ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64, // tight budget so every window banks detection cycles
	})
	if err != nil {
		panic(err)
	}
	defer svc.Close()

	matcher, err := hotprefetch.NewConcurrentMatcher(nil, 2) // starts pass-through
	if err != nil {
		panic(err)
	}
	sup, err := hotprefetch.Supervise(svc, matcher, hotprefetch.SupervisorConfig{
		// The supervisor has no loop of its own: we drive its windows with
		// Poll, once per program window, as a server would from its own
		// loop (say, after every publish).
		AccuracyFloor: 0.25,
		BadWindows:    2,
	})
	if err != nil {
		panic(err)
	}
	defer sup.Close()

	fmt.Println("\nsupervised (hands-off):")
	fmt.Println("window  phase  state-after-poll  accuracy  deopts  reopts")
	for w, trace := range windows {
		phase := "A"
		if w >= 3 {
			phase = "B"
		}
		// The running program: every reference feeds both the profile (the
		// instrumented awake phase) and the matcher (the detection code).
		for _, r := range trace {
			svc.Shard(0).Add(r)
			matcher.Observe(r)
		}
		svc.Flush()
		// One supervision window per program window. Poll twice so a phase
		// shift can both strike the stale matcher and, once hibernated,
		// re-optimize within the same program window.
		sup.Poll()
		sup.Poll()
		snap := sup.Snapshot()
		fmt.Printf("%-7d %-6s %-17s %-9.2f %-7d %d\n",
			w, phase, snap.State, snap.Accuracy, snap.Deoptimizations, snap.Reoptimizations)
	}
	fmt.Println("\nthe supervisor noticed the phase boundary by itself: accuracy fell,")
	fmt.Println("it hibernated the stale matcher, and retrained it on phase-B cycles.")
}

// usefulPrefetches replays a trace through a matcher for the given streams
// and counts prefetched addresses that are subsequently referenced.
func usefulPrefetches(streams []hotprefetch.Stream, trace []hotprefetch.Ref) int {
	if len(streams) == 0 {
		return 0
	}
	matcher, err := hotprefetch.NewMatcher(streams, 2)
	if err != nil {
		panic(err)
	}
	pending := map[uint64]bool{}
	useful := 0
	for _, r := range trace {
		if pending[r.Addr] {
			useful++
			delete(pending, r.Addr)
		}
		if prefetch, _ := matcher.Observe(r); prefetch != nil {
			for _, a := range prefetch {
				pending[a] = true
			}
		}
	}
	return useful
}
