//go:build race

package hotprefetch

const raceEnabled = true
