//go:build !linux

package hotprefetch

import (
	"testing"
	"time"
)

// processCPU stands in for the getrusage reading off Linux. It reads zero,
// and the benchmarks report cpu-ns/op only when the reading moved.
func processCPU(testing.TB) time.Duration { return 0 }
