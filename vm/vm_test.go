package vm

import (
	"errors"
	"strings"
	"testing"

	"hotprefetch/internal/memsim"
)

const chaseSource = `
proc main
  const r1, 500
laps:
  call walk
  loop r1, laps
  ret

proc walk
  const r2, 16
  load r3, [r2+0]
chase:
  load r3, [r3+0]
  arith 2
  bnez r3, chase
  ret
`

func chaseMachine(t *testing.T) *Machine {
	t.Helper()
	prog, err := Assemble(chaseSource)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog, MachineConfig{
		HeapWords: 1 << 14,
		Cache: CacheConfig{
			BlockSize: 32, L1Size: 512, L1Assoc: 2, L2Size: 2048, L2Assoc: 2,
			L2HitCycles: 10, MemCycles: 100,
		},
	})
	list := m.AllocList(80, 4, true, 7)
	m.WriteWord(16, list[0])
	return m
}

func TestAssembleRejectsBadSource(t *testing.T) {
	if _, err := Assemble("proc p\n bogus\n ret\n"); err == nil {
		t.Error("bad source must be rejected")
	}
}

func TestDisasm(t *testing.T) {
	prog, err := Assemble(chaseSource)
	if err != nil {
		t.Fatal(err)
	}
	d := prog.Disasm()
	for _, want := range []string{"main:", "walk:", "bnez r3"} {
		if !strings.Contains(d, want) {
			t.Errorf("disasm missing %q", want)
		}
	}
}

func TestUnoptimizedRunIsDeterministic(t *testing.T) {
	a, err := chaseMachine(t).RunUnoptimized()
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaseMachine(t).RunUnoptimized()
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a == 0 {
		t.Errorf("runs diverged: %d vs %d", a, b)
	}
}

func TestOptimizedBeatsUnoptimized(t *testing.T) {
	m := chaseMachine(t)
	base, err := m.RunUnoptimized()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultOptimizeConfig()
	cfg.SamplingDenominator = 4 // short program: sample aggressively
	cfg.AwakePeriods = 4
	cfg.HibernatePeriods = 40
	rep, err := m.RunOptimized(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OptCycles == 0 || rep.HotStreams == 0 {
		t.Fatalf("optimizer idle: %+v", rep)
	}
	if rep.Cycles >= base {
		t.Errorf("optimized %d should beat unoptimized %d", rep.Cycles, base)
	}
	if rep.UsefulPrefetches == 0 {
		t.Error("no useful prefetches")
	}
}

func TestRunsShareAPristineHeap(t *testing.T) {
	// RunUnoptimized mutates nothing visible: running it twice from the
	// same Machine gives identical results even though the simulated
	// program writes to its heap (the schedule cursor is in machine
	// memory, not the image).
	m := chaseMachine(t)
	a, err := m.RunUnoptimized()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.RunUnoptimized()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("heap image leaked between runs")
	}
}

func TestEventsStream(t *testing.T) {
	m := chaseMachine(t)
	var log strings.Builder
	cfg := DefaultOptimizeConfig()
	cfg.SamplingDenominator = 4
	cfg.AwakePeriods = 4
	cfg.HibernatePeriods = 40
	cfg.Events = &log
	if _, err := m.RunOptimized(cfg); err != nil {
		t.Fatal(err)
	}
	out := log.String()
	for _, want := range []string{"analyzed", "injected", "hibernate"} {
		if !strings.Contains(out, want) {
			t.Errorf("event log missing %q:\n%s", want, out)
		}
	}
}

func TestOptimizeConfigValidation(t *testing.T) {
	m := chaseMachine(t)
	bad := DefaultOptimizeConfig()
	bad.SamplingDenominator = 1
	if _, err := m.RunOptimized(bad); err == nil {
		t.Error("SamplingDenominator 1 must be rejected")
	}
	bad = DefaultOptimizeConfig()
	bad.BurstChecks = 0
	if _, err := m.RunOptimized(bad); err == nil {
		t.Error("BurstChecks 0 must be rejected")
	}
}

func TestAllocHelpers(t *testing.T) {
	prog, err := Assemble("proc main\n ret\n")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog, MachineConfig{HeapWords: 4096})
	a := m.Alloc(64)
	b := m.Alloc(8)
	if a < 1024 || b <= a {
		t.Errorf("allocations misplaced: %d, %d", a, b)
	}
	m.WriteWord(a, 42)
	if m.ReadWord(a) != 42 {
		t.Error("image write/read broken")
	}
	list := m.AllocList(5, 2, false, 0)
	if len(list) != 5 {
		t.Fatalf("list has %d nodes", len(list))
	}
	for i := 0; i < 4; i++ {
		if m.ReadWord(list[i]) != list[i+1] {
			t.Errorf("list link %d broken", i)
		}
	}
	if m.ReadWord(list[4]) != 0 {
		t.Error("list must be nil-terminated")
	}
}

// TestRunsRejectBadCacheConfig checks that a cache geometry the simulator
// cannot index comes back from both runs as the memsim.ConfigError, not as
// a panic: blocks that are not a power of two, and a 3-way L1, whose 170
// sets the set index could not reach.
func TestRunsRejectBadCacheConfig(t *testing.T) {
	prog, err := Assemble(chaseSource)
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []CacheConfig{
		{BlockSize: 48, L1Size: 512, L1Assoc: 2, L2Size: 2048, L2Assoc: 2, L2HitCycles: 10, MemCycles: 100},
		func() CacheConfig { c := DefaultCacheConfig(); c.L1Assoc = 3; return c }(),
	} {
		m := NewMachine(prog, MachineConfig{HeapWords: 1 << 14, Cache: cache})
		var cerr *memsim.ConfigError
		if _, err := m.RunUnoptimized(); !errors.As(err, &cerr) {
			t.Errorf("%+v: RunUnoptimized error = %v, want a memsim.ConfigError", cache, err)
		}
		if _, err := m.RunOptimized(DefaultOptimizeConfig()); !errors.As(err, &cerr) {
			t.Errorf("%+v: RunOptimized error = %v, want a memsim.ConfigError", cache, err)
		}
	}
}
