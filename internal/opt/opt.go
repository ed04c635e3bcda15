// Package opt implements the paper's primary contribution: the dynamic
// prefetching optimizer that cycles a running program through profiling,
// analysis and optimization, and hibernation phases (paper Figure 1).
//
// The optimizer attaches to a machine as its instrumentation runtime:
//
//   - during the awake phase, bursty-tracing checks steer execution between
//     code versions and sampled data references stream into an incremental
//     Sequitur grammar;
//   - when the awake phase completes, hot data streams are extracted from
//     the grammar (Figure 5), a prefix-matching DFSM is built for all of
//     them (Figure 9), and detection/prefetching code is injected into the
//     running program with the Vulcan analog (Figure 10);
//   - during hibernation the program runs with the injected code; complete
//     prefix matches issue prefetches for stream tails;
//   - when hibernation ends the program is de-optimized and the cycle
//     repeats.
//
// The evaluation modes of the paper's Figures 11 and 12 (Base, Prof, Hds,
// No-pref, Seq-pref, Dyn-pref) are all expressed as configurations of this
// one optimizer, exactly as they are in the paper's framework.
package opt

import (
	"hotprefetch/internal/burst"
	"hotprefetch/internal/dfsm"
	"hotprefetch/internal/hotds"
	"hotprefetch/internal/machine"
	"hotprefetch/internal/memsim"
	"hotprefetch/internal/ref"
	"hotprefetch/internal/sequitur"
	"hotprefetch/internal/vulcan"
)

// Mode selects how much of the pipeline runs, matching the bars of the
// paper's Figures 11 and 12.
type Mode int

const (
	// ModeBase executes only the dynamic checks (Figure 11 "Base").
	ModeBase Mode = iota
	// ModeProfile adds temporal data reference profiling into Sequitur
	// (Figure 11 "Prof").
	ModeProfile
	// ModeHds adds hot data stream analysis each cycle (Figure 11 "Hds").
	ModeHds
	// ModeNoPref adds DFSM construction, code injection, and prefix
	// matching, but discards the prefetches (Figure 12 "No-pref").
	ModeNoPref
	// ModeSeqPref issues prefetches for the cache blocks sequentially
	// following the last prefix-matched reference instead of the stream's
	// addresses (Figure 12 "Seq-pref").
	ModeSeqPref
	// ModeDynPref is the full dynamic prefetching scheme (Figure 12
	// "Dyn-pref").
	ModeDynPref
)

func (m Mode) String() string {
	switch m {
	case ModeBase:
		return "base"
	case ModeProfile:
		return "prof"
	case ModeHds:
		return "hds"
	case ModeNoPref:
		return "no-pref"
	case ModeSeqPref:
		return "seq-pref"
	case ModeDynPref:
		return "dyn-pref"
	}
	return "mode?"
}

func (m Mode) profiles() bool   { return m >= ModeProfile }
func (m Mode) analyzes() bool   { return m >= ModeHds }
func (m Mode) injects() bool    { return m >= ModeNoPref }
func (m Mode) prefetches() bool { return m >= ModeSeqPref }

// CostModel holds the cycle costs of the instrumentation and runtime code
// the optimizer adds to the program. Costs are charged through the machine's
// runtime interface, so every overhead the paper measures is part of
// simulated execution time.
type CostModel struct {
	// TraceCost is charged per profiled data reference: the buffer write
	// plus the amortized incremental Sequitur update (§2.4 sends references
	// to Sequitur as they are collected).
	TraceCost uint64
	// AnalysisPerSymbol is charged per grammar symbol when the hot data
	// stream analysis runs (the algorithm is linear in grammar size).
	AnalysisPerSymbol uint64
	// MatchBase and MatchPerCmp price one executed injected check: a fixed
	// part plus one unit per comparison in the if-chain (Figure 7).
	MatchBase   uint64
	MatchPerCmp uint64
	// PrefetchIssue is charged per prefetch instruction executed.
	// (The machine additionally charges 1 base cycle.)
	PrefetchIssue uint64
	// InjectPause is charged once per optimization cycle that injects code:
	// dynamic Vulcan stops all program threads while binary modifications
	// are in progress (§3.2).
	InjectPause uint64
	// InjectPerCheck is charged per inserted check during injection.
	InjectPerCheck uint64
}

// DefaultCostModel returns costs calibrated so that the framework overheads
// land in the ranges of the paper's Figure 11 on the bundled workloads.
func DefaultCostModel() CostModel {
	return CostModel{
		TraceCost:         30,
		AnalysisPerSymbol: 25,
		MatchBase:         1,
		MatchPerCmp:       1,
		PrefetchIssue:     1,
		InjectPause:       20000,
		InjectPerCheck:    200,
	}
}

// Config configures one optimizer run.
type Config struct {
	Mode     Mode
	Burst    burst.Config
	Analysis hotds.Config
	// HeadLen is the stream prefix length that must match before
	// prefetching is initiated. The paper finds 2 best: 1 hurts accuracy,
	// 3 adds overhead without benefit (§4.3).
	HeadLen int
	Costs   CostModel
	// MaxOptCycles stops optimizing after this many cycles (0 = unlimited);
	// profiling continues but no further injections happen. Used by tests.
	MaxOptCycles int

	// ScheduleChunk, when positive, spreads a matched stream's tail
	// prefetches over subsequent injected checks, at most ScheduleChunk
	// per check, instead of issuing them all at the match point. The paper
	// issues everything immediately and notes that "more intelligent
	// prefetch scheduling could produce larger benefits" (§4.3); this is
	// that extension. Zero preserves the paper's behaviour.
	ScheduleChunk int

	// Static switches the optimizer to a one-shot static scheme: the first
	// awake phase's streams are injected once and kept forever — no
	// de-optimization, no re-profiling. The paper defers this comparison
	// to future work (§1); it isolates the value of adapting to phase
	// transitions. Only meaningful for the prefetching modes.
	Static bool
}

// DefaultConfig returns the paper's §4.1 configuration.
func DefaultConfig() Config {
	return Config{
		Mode:     ModeDynPref,
		Burst:    burst.PaperConfig(),
		Analysis: hotds.DefaultConfig(),
		HeadLen:  2,
		Costs:    DefaultCostModel(),
	}
}

// BaseVariant returns cfg adjusted for the paper's "Base" measurement:
// "setting nCheck0 to an extremely large value and nInstr0 to 1" (§4.2), so
// the program pays for the dynamic checks but performs (virtually) no data
// reference profiling.
func BaseVariant(cfg Config) Config {
	cfg.Mode = ModeBase
	cfg.Burst.NCheck0 = 1 << 40
	cfg.Burst.NInstr0 = 1
	return cfg
}

// CycleStats describes one completed optimization cycle — one row's worth of
// the paper's Table 2.
type CycleStats struct {
	TracedRefs      uint64 // references profiled during the awake phase
	GrammarSize     int    // Sequitur grammar size at analysis time
	HotStreams      int    // hot data streams detected
	StreamRefs      int    // total references across detected streams
	DFSMStates      int
	DFSMTransitions int
	ChecksInserted  int // prefix-match checks injected (Table 2's "checks")
	ProcsModified   int
	PrefixMatches   uint64 // complete head matches during the hibernation
}

// AvgStreamLen returns the average detected stream length in references —
// the paper's intro reports hot data streams are "long enough (15-20 object
// references on average) so that they can be prefetched ahead of use in a
// timely manner" (§1).
func (c CycleStats) AvgStreamLen() float64 {
	if c.HotStreams == 0 {
		return 0
	}
	return float64(c.StreamRefs) / float64(c.HotStreams)
}

// Result aggregates a full run.
type Result struct {
	Mode       Mode
	Cycles     []CycleStats // one entry per completed optimization cycle
	ExecCycles uint64       // total simulated execution time
	Machine    machine.Stats
	Cache      memsim.Stats
	Burst      burst.Stats
}

// OptCycles returns the number of completed optimization cycles.
func (r Result) OptCycles() int { return len(r.Cycles) }

// AvgPerCycle averages cycle statistics (Table 2 reports per-cycle
// averages). It returns zeros when no cycle completed.
func (r Result) AvgPerCycle() CycleStats {
	n := len(r.Cycles)
	if n == 0 {
		return CycleStats{}
	}
	var sum CycleStats
	for _, c := range r.Cycles {
		sum.TracedRefs += c.TracedRefs
		sum.GrammarSize += c.GrammarSize
		sum.HotStreams += c.HotStreams
		sum.StreamRefs += c.StreamRefs
		sum.DFSMStates += c.DFSMStates
		sum.DFSMTransitions += c.DFSMTransitions
		sum.ChecksInserted += c.ChecksInserted
		sum.ProcsModified += c.ProcsModified
		sum.PrefixMatches += c.PrefixMatches
	}
	return CycleStats{
		TracedRefs:      sum.TracedRefs / uint64(n),
		GrammarSize:     sum.GrammarSize / n,
		HotStreams:      sum.HotStreams / n,
		StreamRefs:      sum.StreamRefs / n,
		DFSMStates:      sum.DFSMStates / n,
		DFSMTransitions: sum.DFSMTransitions / n,
		ChecksInserted:  sum.ChecksInserted / n,
		ProcsModified:   sum.ProcsModified / n,
		PrefixMatches:   sum.PrefixMatches / uint64(n),
	}
}

// Optimizer is the machine runtime that implements the dynamic prefetching
// scheme. Create one per run with New.
type Optimizer struct {
	cfg  Config
	m    *machine.Machine
	ctrl *burst.Controller

	interner *ref.Interner
	grammar  *sequitur.Grammar

	matcher   *dfsm.Matcher
	injection vulcan.InjectResult
	injected  bool

	cycles  []CycleStats
	current CycleStats
	optDone bool // MaxOptCycles reached
	blockSz uint64
	seqBufs []machine.Word // scratch for sequential prefetch addresses

	// pending holds scheduled-but-unissued prefetch addresses when
	// ScheduleChunk is in effect; issue is the current check's slice, and
	// headPCs marks the injected sites that drive the matcher (the rest
	// are drain-only sites along stream bodies).
	pending []machine.Word
	issue   []machine.Word
	headPCs map[int]bool
	events  EventSink
}

// New attaches a fresh optimizer to m. The machine's program must already be
// statically instrumented (vulcan.Instrument).
func New(m *machine.Machine, cfg Config) *Optimizer {
	if cfg.HeadLen < 1 {
		cfg.HeadLen = 2
	}
	o := &Optimizer{
		cfg:      cfg,
		m:        m,
		ctrl:     burst.New(cfg.Burst),
		interner: ref.NewInterner(),
		grammar:  sequitur.New(),
		blockSz:  uint64(m.Cache.BlockSize()),
	}
	m.RT = o
	return o
}

// Check implements machine.Runtime.
func (o *Optimizer) Check(pc int) (machine.Version, uint64) {
	instrumented, phaseEnded := o.ctrl.Check()
	cost := o.ctrl.CheckCost()
	if phaseEnded {
		if o.ctrl.Phase() == burst.Awake {
			cost += o.endAwakePhase()
			o.emit(EventHibernate, "%d traced refs this cycle", o.current.TracedRefs)
			o.ctrl.Hibernate()
		} else {
			o.endHibernation()
			if o.cfg.Static && o.injected {
				// One-shot static scheme: stay optimized, never re-profile.
				o.ctrl.Hibernate()
			} else {
				o.emit(EventAwake, "profiling resumes")
				o.ctrl.Wake()
			}
		}
		instrumented = false
	}
	if instrumented {
		return machine.VersionInstrumented, cost
	}
	return machine.VersionChecking, cost
}

// TraceRef implements machine.Runtime: one profiled data reference.
func (o *Optimizer) TraceRef(pc int, addr machine.Word, isWrite bool) uint64 {
	if !o.ctrl.Awake() {
		// Hibernation traces one burst per period into the void; the refs
		// are ignored to avoid trace contamination (§2.4), but the
		// instrumented code still costs its buffer write.
		return o.cfg.Costs.TraceCost
	}
	if o.cfg.Mode.profiles() {
		o.current.TracedRefs++
		sym := o.interner.Intern(ref.Ref{PC: pc, Addr: addr})
		o.grammar.Append(uint64(sym))
	}
	return o.cfg.Costs.TraceCost
}

// Match implements machine.Runtime: one executed injected check.
func (o *Optimizer) Match(pc int, addr machine.Word) ([]machine.Word, uint64) {
	if o.matcher == nil {
		// Stale injected code after de-optimization (a frame that was on
		// the stack at deopt time, §3.2): the check runs but matches
		// nothing.
		return nil, o.cfg.Costs.MatchBase
	}
	var prefetch []uint64
	cost := o.cfg.Costs.MatchBase
	if o.headPCs == nil || o.headPCs[pc] {
		var comparisons int
		prefetch, comparisons = o.matcher.Observe(ref.Ref{PC: pc, Addr: addr})
		cost += o.cfg.Costs.MatchPerCmp * uint64(comparisons)
		if prefetch != nil {
			o.current.PrefixMatches++
		}
	}
	if !o.cfg.Mode.prefetches() {
		return nil, cost // ModeNoPref: matching overhead without prefetches
	}
	if prefetch != nil && o.cfg.Mode == ModeSeqPref {
		// Prefetch the blocks sequentially following the last matched
		// reference, one per stream address the real scheme would fetch
		// (§4.3's Seq-pref baseline).
		o.seqBufs = o.seqBufs[:0]
		for i := 1; i <= len(prefetch); i++ {
			o.seqBufs = append(o.seqBufs, addr+uint64(i)*o.blockSz)
		}
		prefetch = o.seqBufs
	}

	chunk := o.cfg.ScheduleChunk
	if chunk <= 0 {
		// The paper's behaviour: issue the whole tail at the match point.
		if prefetch == nil {
			return nil, cost
		}
		return prefetch, cost + o.cfg.Costs.PrefetchIssue*uint64(len(prefetch))
	}

	// Scheduled prefetching: enqueue the tail and drain up to chunk
	// addresses per executed check, overlapping fills with more of the
	// stream's own progress.
	if prefetch != nil {
		o.pending = append(o.pending, prefetch...)
	}
	if len(o.pending) == 0 {
		return nil, cost
	}
	n := chunk
	if n > len(o.pending) {
		n = len(o.pending)
	}
	o.issue = append(o.issue[:0], o.pending[:n]...)
	o.pending = o.pending[:copy(o.pending, o.pending[n:])]
	return o.issue, cost + o.cfg.Costs.PrefetchIssue*uint64(n)
}

// endAwakePhase runs the analysis-and-optimization phase and returns its
// modeled cycle cost.
func (o *Optimizer) endAwakePhase() uint64 {
	var cost uint64
	o.current.GrammarSize = o.grammar.Size()

	if o.cfg.Mode.analyzes() && !o.optDone {
		cost += o.cfg.Costs.AnalysisPerSymbol * uint64(o.grammar.Size())
		streams := hotds.Analyze(o.grammar.Snapshot(), o.cfg.Analysis)
		o.current.HotStreams = len(streams)
		for _, s := range streams {
			o.current.StreamRefs += len(s.Word)
		}
		o.emit(EventAnalyzed, "%d hot streams from %d-symbol grammar",
			len(streams), o.grammar.Size())

		if o.cfg.Mode.injects() && len(streams) > 0 {
			hot := make([]ref.Stream, len(streams))
			for i, s := range streams {
				hot[i] = o.interner.Stream(s.Word, s.Heat)
			}
			d := dfsm.New(hot, o.cfg.HeadLen)
			o.current.DFSMStates = d.NumStates()
			o.current.DFSMTransitions = d.NumTransitions()

			pcs := map[int]bool{}
			for _, pc := range d.PCs() {
				pcs[pc] = true
			}
			o.headPCs = pcs
			if o.cfg.ScheduleChunk > 0 {
				// Scheduled prefetching needs drain points along the whole
				// stream, not just its head: inject (drain-only) checks at
				// every stream pc.
				all := map[int]bool{}
				for pc := range pcs {
					all[pc] = true
				}
				for _, s := range hot {
					for _, r := range s.Refs {
						all[r.PC] = true
					}
				}
				pcs = all
			}
			o.injection = vulcan.Inject(o.m.Prog, pcs)
			o.injected = true
			o.current.ChecksInserted = o.injection.ChecksInserted
			o.current.ProcsModified = o.injection.ProcsModified()
			o.matcher = dfsm.NewMatcher(d)
			o.emit(EventInjected, "%d checks into %d procs, DFSM <%d states, %d transitions>",
				o.injection.ChecksInserted, o.injection.ProcsModified(),
				d.NumStates(), d.NumTransitions())
			cost += o.cfg.Costs.InjectPause +
				o.cfg.Costs.InjectPerCheck*uint64(o.injection.ChecksInserted)
		}
	}

	// Fresh grammar for the next cycle; the interner persists so symbols
	// remain stable across cycles.
	o.grammar = sequitur.New()
	return cost
}

// endHibernation de-optimizes and closes out the cycle's statistics. Under
// the static one-shot scheme the injection is kept and the optimizer stays
// dormant: the program runs with the first cycle's prefetching forever.
func (o *Optimizer) endHibernation() {
	if o.injected && !o.cfg.Static {
		vulcan.Deoptimize(o.m.Prog, o.injection)
		o.emit(EventDeoptimized, "removed %d entry patches", len(o.injection.Patched))
		o.injected = false
		o.matcher = nil
	}
	o.pending = o.pending[:0]
	o.cycles = append(o.cycles, o.current)
	o.current = CycleStats{}
	if o.cfg.MaxOptCycles > 0 && len(o.cycles) >= o.cfg.MaxOptCycles {
		o.optDone = true
	}
	if o.cfg.Static && o.injected {
		o.optDone = true
	}
}

// Result collects the run's statistics. Call after the machine has halted.
func (o *Optimizer) Result() Result {
	return Result{
		Mode:       o.cfg.Mode,
		Cycles:     o.cycles,
		ExecCycles: o.m.Cycles,
		Machine:    o.m.Stats,
		Cache:      o.m.Cache.Stats(),
		Burst:      o.ctrl.Stats(),
	}
}

// Run executes the machine to completion under the optimizer and returns
// the result.
func Run(m *machine.Machine, cfg Config) (Result, error) {
	o := New(m, cfg)
	if err := m.RunToCompletion(); err != nil {
		return Result{}, err
	}
	return o.Result(), nil
}

// RunBaseline executes a machine with no instrumentation runtime at all and
// returns its cycle count — the "original unoptimized program" execution
// time that Figure 12 normalizes against. The machine's program must be the
// pre-instrumentation build.
func RunBaseline(m *machine.Machine) (uint64, error) {
	m.RT = nil
	if err := m.RunToCompletion(); err != nil {
		return 0, err
	}
	return m.Cycles, nil
}
