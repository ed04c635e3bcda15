package workload

import (
	"reflect"
	"testing"

	"hotprefetch/internal/burst"
	"hotprefetch/internal/hotds"
	"hotprefetch/internal/opt"
)

// tiny returns a quick-to-run parameter set for structural tests.
func tiny() Params {
	return Params{
		Name: "tiny", Seed: 1,
		HotChains: 8, ChainLen: 10, Repeats: 2,
		WarmPool: 40, WarmPerLap: 10,
		ArithPerRef: 1, HotProcs: 3,
		Phases: 2, PhaseBlocks: 2, LapsPerBlock: 5,
	}
}

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 6 {
		t.Fatalf("catalog has %d benchmarks, want 6", len(cat))
	}
	want := []string{"vpr", "mcf", "twolf", "parser", "vortex", "boxsim"}
	for i, p := range cat {
		if p.Name != want[i] {
			t.Errorf("catalog[%d] = %s, want %s (paper figure order)", i, p.Name, want[i])
		}
		if p.HotChains < 10 || p.HotChains > 50 {
			t.Errorf("%s: HotChains %d outside Table 2 stream range", p.Name, p.HotChains)
		}
		if p.HotProcs < 6 || p.HotProcs > 12 {
			t.Errorf("%s: HotProcs %d outside Table 2 procedure range", p.Name, p.HotProcs)
		}
		if p.ChainLen <= 10 {
			t.Errorf("%s: ChainLen %d must exceed the 10-unique-refs threshold", p.Name, p.ChainLen)
		}
	}
	if _, ok := ByName("parser"); !ok {
		t.Error("ByName must find parser")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName must reject unknown names")
	}
	seq := 0
	for _, p := range cat {
		if p.Sequential {
			seq++
			if p.Name != "parser" {
				t.Errorf("%s should not be sequential", p.Name)
			}
		}
	}
	if seq != 1 {
		t.Error("exactly parser must have sequential layout")
	}
}

func TestInstanceRunsToCompletion(t *testing.T) {
	inst := Build(tiny())
	m := inst.NewMachine(CacheConfig(), false)
	if err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Refs == 0 {
		t.Fatal("workload performed no references")
	}
	// The workload must be miss-heavy: pointer chasing across a working
	// set beyond L2.
	if ratio := m.Cache.Stats().MissRatio(); ratio < 0.3 {
		t.Errorf("L1 miss ratio %.2f too low for a memory-bound workload", ratio)
	}
	if m.Cache.Stats().L2Misses == 0 {
		t.Error("workload should miss in L2")
	}
}

func TestRefsPerLapEstimate(t *testing.T) {
	p := tiny()
	inst := Build(p)
	m := inst.NewMachine(CacheConfig(), false)
	if err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	est := uint64(p.RefsPerLap() * inst.TotalLaps())
	got := m.Stats.Refs
	// The estimate ignores cursor loads and rounding; demand 25% accuracy.
	if got < est*3/4 || got > est*5/4 {
		t.Errorf("refs = %d, estimate %d diverges beyond 25%%", got, est)
	}
}

func TestDeterministicImageAndExecution(t *testing.T) {
	a := Build(tiny()).NewMachine(CacheConfig(), false)
	b := Build(tiny()).NewMachine(CacheConfig(), false)
	if err := a.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if err := b.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Stats != b.Stats {
		t.Error("same params must give identical executions")
	}
}

func TestInstrumentedMatchesBaselineSemantics(t *testing.T) {
	inst := Build(tiny())
	base := inst.NewMachine(CacheConfig(), false)
	if err := base.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	instr := inst.NewMachine(CacheConfig(), true)
	// nil runtime: checks cost nothing, checking version runs throughout.
	if err := instr.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if base.Stats.Refs != instr.Stats.Refs {
		t.Errorf("instrumentation changed refs: %d vs %d", base.Stats.Refs, instr.Stats.Refs)
	}
}

func TestMachinesFromSameInstanceAreIndependent(t *testing.T) {
	inst := Build(tiny())
	m1 := inst.NewMachine(CacheConfig(), false)
	if err := m1.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	// m1 mutated its heap (schedule cursors); a second machine must start
	// from the pristine image.
	m2 := inst.NewMachine(CacheConfig(), false)
	if err := m2.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if m1.Cycles != m2.Cycles {
		t.Error("second machine saw a dirty heap image")
	}
}

func TestHotProcsAppearInProgram(t *testing.T) {
	p := tiny()
	prog := Build(p).NewMachine(CacheConfig(), false).Prog
	for ph := 0; ph < p.Phases; ph++ {
		for i := 0; i < p.HotProcs; i++ {
			name := "work_p" + string(rune('0'+ph)) + "_" + string(rune('0'+i))
			if prog.ProcIndex(name) < 0 {
				t.Errorf("missing procedure %s", name)
			}
		}
	}
	if prog.ProcIndex("warm_sweep") < 0 {
		t.Error("missing warm_sweep")
	}
}

// TestEndToEndPrefetchingWin runs a scaled-down benchmark through the full
// optimizer and asserts a net win, tying workload and optimizer together.
func TestEndToEndPrefetchingWin(t *testing.T) {
	p := Params{
		Name: "e2e", Seed: 3,
		HotChains: 12, ChainLen: 14, Repeats: 3,
		WarmPool: 120, WarmPerLap: 40,
		ArithPerRef: 1, HotProcs: 4,
		Phases: 1, PhaseBlocks: 1, LapsPerBlock: 700,
	}
	inst := Build(p)
	base, err := opt.RunBaseline(inst.NewMachine(CacheConfig(), false))
	if err != nil {
		t.Fatal(err)
	}
	cfg := opt.Config{
		Mode: opt.ModeDynPref,
		Burst: burst.Config{
			NCheck0: 380, NInstr0: 20, NAwake0: 25, NHibernate0: 100, CheckCost: 25,
		},
		Analysis: hotds.Config{
			MinLen: 10, MaxLen: 100, MinUnique: 10, MinCoverage: 0.01, MaxStreams: 100,
		},
		HeadLen: 2,
		Costs:   opt.DefaultCostModel(),
	}
	res, err := opt.Run(inst.NewMachine(CacheConfig(), true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OptCycles() == 0 {
		t.Fatal("no optimization cycle completed")
	}
	if res.ExecCycles >= base {
		t.Errorf("dyn-pref %d should beat baseline %d", res.ExecCycles, base)
	}
}

// TestCatalogDesignRules checks the analytic properties DESIGN.md derives
// for every catalog benchmark: each hot chain covers at least the 1% heat
// threshold of the trace, and the distinct blocks touched between a chain's
// repeats exceed the L2 capacity so traversals miss without prefetching.
func TestCatalogDesignRules(t *testing.T) {
	cache := CacheConfig()
	l2Blocks := cache.L2Size / cache.BlockSize
	for _, p := range Catalog() {
		refsPerLap := float64(p.RefsPerLap())
		coverage := float64(p.ChainLen*p.Repeats) / refsPerLap
		if coverage < 0.01 {
			t.Errorf("%s: per-chain coverage %.4f below the 1%% threshold", p.Name, coverage)
		}
		// Spacing between a chain's repeats, in chase-reference blocks.
		spacing := refsPerLap / float64(p.Repeats)
		perEntry := float64(p.ChainLen + 2)
		distinctBlocks := spacing * float64(p.ChainLen) / perEntry
		// vortex is deliberately the least memory-bound benchmark; every
		// other benchmark's spacing must reach the L2 capacity. The
		// estimate counts only chase references (warm and sentinel refs
		// also touch distinct blocks), so allow a 5% underestimate.
		if p.Name != "vortex" && distinctBlocks < 0.95*float64(l2Blocks) {
			t.Errorf("%s: repeat spacing ~%.0f blocks below L2 capacity %d",
				p.Name, distinctBlocks, l2Blocks)
		}
		// Streams must be long enough for the >10-unique-refs threshold
		// and short enough that tails fit comfortably in L2.
		if p.ChainLen <= 10 || p.ChainLen > l2Blocks/4 {
			t.Errorf("%s: ChainLen %d outside the workable stream range", p.Name, p.ChainLen)
		}
	}
}

func TestCaptureIsExactAndRepeatable(t *testing.T) {
	inst := Build(tiny())
	a, err := inst.Capture(500)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 500 {
		t.Fatalf("Capture(500) returned %d references", len(a))
	}
	b, err := inst.Capture(500)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two captures of one instance differ")
	}
	// A budget past the program's end returns the whole run, which starts
	// with the shorter capture.
	all, err := inst.Capture(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) <= len(a) || len(all) == 100_000 || !reflect.DeepEqual(all[:len(a)], a) {
		t.Fatalf("full capture of %d references does not extend the 500-reference one", len(all))
	}
}
