//go:build !race

package hotprefetch

// raceEnabled reports whether the race detector is compiled in; allocation
// counts include the detector's own bookkeeping under -race, so the
// steady-state allocation tests skip themselves there.
const raceEnabled = false
