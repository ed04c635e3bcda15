package hotprefetch

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"hotprefetch/internal/burst"
)

// IngestPolicy selects how a ProfileShard behaves when its ring buffer is
// full — the back-pressure contract between a profiled workload and the
// profiling service. The paper's profiling is sampling-based by design
// (bursty tracing captures ~0.5% of references, §2.2), so shedding load
// under pressure degrades accuracy gracefully rather than correctness.
type IngestPolicy int

const (
	// Block makes Add sleep while the ring is full, until the consumer has
	// drained it to half. No reference is ever lost, at the cost of stalling
	// the producer — appropriate for offline trace ingestion where
	// completeness matters.
	Block IngestPolicy = iota

	// Drop makes Add shed the reference immediately when the ring is full,
	// counting it in the shard's dropped total. The producer never stalls —
	// appropriate for live workloads where profiling must stay off the
	// critical path.
	Drop

	// Sample degrades to 1-in-SampleInterval acceptance under sustained
	// pressure: the first full-ring rejection switches the shard into
	// degraded mode, where only every SampleInterval-th reference is even
	// attempted; the shard leaves degraded mode once a push succeeds with
	// the ring at most half full. Sheds load like Drop but keeps a uniform
	// sample flowing, which Sequitur can still compress into the hottest
	// streams. Choose it for mild pressure: with a consumer at half the
	// load it keeps the hot streams that Drop splits at its seams, while
	// under heavy pressure it never leaves degraded mode and Drop keeps
	// them instead (TestShedPoliciesUnderPressure).
	Sample
)

// String returns the policy name used by flags and stats output.
func (p IngestPolicy) String() string {
	switch p {
	case Block:
		return "block"
	case Drop:
		return "drop"
	case Sample:
		return "sample"
	default:
		return fmt.Sprintf("IngestPolicy(%d)", int(p))
	}
}

// ParseIngestPolicy converts a policy name ("block", "drop", "sample") to
// its IngestPolicy.
func ParseIngestPolicy(s string) (IngestPolicy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop":
		return Drop, nil
	case "sample":
		return Sample, nil
	default:
		return 0, fmt.Errorf("hotprefetch: unknown ingest policy %q (want block, drop, or sample)", s)
	}
}

// BurstConfig configures the bursty-sampling front end ShardedProfile
// producers run ahead of the ingest policy — the paper's bursty tracing
// counter machine (§2.1–2.2) deciding, per reference, whether the profiler
// is even looking. With the paper's parameters, full-rate traffic costs one
// counter decrement per reference on the Add path (one subtraction per
// checking-phase span on the AddBatch path), only ~0.5% of awake-phase
// references reach the ring and Sequitur, and the controller alternates
// between awake and hibernating phases on its own — the self-clocked
// profile/hibernate cycle of the paper's Figure 3. Sampling is deterministic
// and happens before the ring, so the back-pressure policy sees only the
// sampled stream; shed references are counted in Stats.BurstShed.
type BurstConfig struct {
	// Enabled turns the front end on; all other fields are ignored when
	// false.
	Enabled bool

	// NCheck and NInstr set the dynamic checks spent in checking versus
	// instrumented code per burst-period (zero means the paper's 11940 and
	// 60 — a 0.5% awake sampling rate in bursts of 60 references).
	NCheck, NInstr int64

	// NAwake and NHibernate set the burst-periods per awake and hibernating
	// phase (zero means the paper's 50 and 2450 — awake 2% of the time).
	NAwake, NHibernate int64
}

// controllerConfig maps the public knobs onto the internal controller
// configuration, substituting the paper's parameters for zero fields.
func (b BurstConfig) controllerConfig() burst.Config {
	cfg := burst.PaperConfig()
	if b.NCheck > 0 {
		cfg.NCheck0 = b.NCheck
	}
	if b.NInstr > 0 {
		cfg.NInstr0 = b.NInstr
	}
	if b.NAwake > 0 {
		cfg.NAwake0 = b.NAwake
	}
	if b.NHibernate > 0 {
		cfg.NHibernate0 = b.NHibernate
	}
	return cfg
}

// Validate reports whether the burst configuration is well-formed. Zero
// counters are valid here — they mean "use the paper's value" — but the
// resolved controller configuration (after paper-default substitution) must
// have every counter positive, so a controller can never be built whose
// burst-period arithmetic divides by zero or whose exported sampling-rate
// gauges read NaN.
func (b BurstConfig) Validate() error {
	if !b.Enabled {
		return nil
	}
	if b.NCheck < 0 || b.NInstr < 0 || b.NAwake < 0 || b.NHibernate < 0 {
		return fmt.Errorf("hotprefetch: negative burst counter (nCheck %d, nInstr %d, nAwake %d, nHibernate %d)",
			b.NCheck, b.NInstr, b.NAwake, b.NHibernate)
	}
	return b.controllerConfig().Validate()
}

// ParseBurstConfig converts a flag value to a BurstConfig: "off" (or the
// empty string) disables bursty sampling, "paper" enables it with the
// paper's §4.1 parameters, and "nCheck:nInstr:nAwake:nHibernate" (four
// non-negative integers, zero meaning the paper value) sets the counters
// explicitly.
func ParseBurstConfig(s string) (BurstConfig, error) {
	switch s {
	case "", "off":
		return BurstConfig{}, nil
	case "paper":
		return BurstConfig{Enabled: true}, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return BurstConfig{}, fmt.Errorf("hotprefetch: bad burst config %q (want off, paper, or nCheck:nInstr:nAwake:nHibernate)", s)
	}
	vals := make([]int64, 4)
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil || v < 0 {
			return BurstConfig{}, fmt.Errorf("hotprefetch: bad burst counter %q in %q", p, s)
		}
		vals[i] = v
	}
	return BurstConfig{Enabled: true, NCheck: vals[0], NInstr: vals[1], NAwake: vals[2], NHibernate: vals[3]}, nil
}

// ErrClosed is returned by ProfileShard.Add and AddAll after the profile has
// been closed, also to a Block Add that was asleep against a full ring.
var ErrClosed = errors.New("hotprefetch: Add on closed ShardedProfile")

// ErrFlushStalled is returned (wrapped) by ShardedProfile.Flush when a
// goroutine holding a shard's drain lock makes no progress toward Flush's
// target for five seconds (flushStallTimeout) — in practice a drain holder
// stuck in its own cycle analysis, since nothing under the drain lock waits
// on another goroutine.
var ErrFlushStalled = errors.New("hotprefetch: flush stalled")

// ErrAnalysisStalled is returned (wrapped) by HotStreams when the
// background analysis pool makes no progress toward draining the pending
// cycle analyses for five seconds (flushStallTimeout).
var ErrAnalysisStalled = errors.New("hotprefetch: analysis pool stalled")

// defaultSampleInterval is the Sample policy's 1-in-N rate when
// ShardedConfig.SampleInterval is zero.
const defaultSampleInterval = 16

// ringCap is every shard ring's capacity, in references.
const ringCap = 1 << 12

// flushStallTimeout is how long Flush waits on a drain-lock holder, and
// HotStreams on the analysis pool, without seeing progress before it
// gives up with ErrFlushStalled or ErrAnalysisStalled.
const flushStallTimeout = 5 * time.Second

// ShardedConfig configures a ShardedProfile beyond the shard count. The zero
// value (aside from Shards) reproduces NewShardedProfile's behavior: Block
// policy, no grammar budget.
type ShardedConfig struct {
	// Shards is the number of independent profile shards (< 1 is treated
	// as 1).
	Shards int

	// Policy selects the full-ring behavior of Add. See IngestPolicy.
	Policy IngestPolicy

	// SampleInterval is the 1-in-N acceptance rate the Sample policy
	// degrades to under pressure (0 means the default of 16; meaningless
	// for other policies).
	SampleInterval int

	// MaxGrammarSymbols, when positive, bounds each shard's Sequitur
	// grammar: a shard whose grammar reaches the budget extracts its hot
	// streams (with DefaultAnalysisConfig), retains them, and resets the
	// grammar — the paper's profile/optimize/hibernate cycle-end
	// deallocation (§5) turned into a hard per-shard memory ceiling for
	// long-running services. Zero means the grammar grows without bound.
	MaxGrammarSymbols int

	// AnalysisWorkers, when positive, pipelines grammar budget cycles: each
	// shard owns two grammars, and hitting MaxGrammarSymbols swaps in the
	// pre-warmed spare and hands the full grammar to a pool of this many
	// background analysis workers — ingestion stalls for a pointer swap
	// instead of a full hot-stream analysis. A cycle that finds the spare
	// still out (the shard's previous analysis is queued or running)
	// analyzes in place instead, as an inline cycle does, so ingestion never
	// waits for the pool. Zero keeps every cycle inline on the goroutine
	// draining the shard: its consumer, or a Flush caller. Has no effect
	// without a grammar budget.
	AnalysisWorkers int

	// Burst, when enabled, puts the paper's bursty-sampling counter machine
	// in front of every shard's ingest policy; see BurstConfig. Each shard
	// gets its own deterministic controller, advanced by its producer.
	Burst BurstConfig

	// RefQuota, when positive, caps the total references this profile will
	// admit across all shards over its lifetime — the per-tenant budget the
	// networked service enforces so one tenant's volume can never grow
	// another tenant's grammars or rings. A reference over quota is shed at
	// the producer boundary (before the burst front end and the ring) and
	// counted in Stats.QuotaShed; like Drop shedding it is never an error.
	// Zero means unlimited.
	RefQuota uint64

	// prepass runs every shard's consumer through the two-level ingest front
	// end (see NewPrepassProfile). The Service sets it for every tenant: its
	// hot-stream contract is equivalence after expansion, which the front
	// end preserves. A plain ShardedProfile leaves it off, so one shard
	// compresses bit-identically to a single Profile.
	prepass bool

	// cycleAnalysis extracts hot streams at each grammar reset; its
	// MaxStreams also caps the retained stream set per shard. The zero
	// value, which every deployment uses, means DefaultAnalysisConfig;
	// in-package tests pick shorter lengths or lower coverage so that short
	// traces show streams.
	cycleAnalysis AnalysisConfig
}

// withDefaults returns the configuration with zero fields replaced by their
// defaults.
func (c ShardedConfig) withDefaults() ShardedConfig {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = defaultSampleInterval
	}
	if c.cycleAnalysis == (AnalysisConfig{}) {
		c.cycleAnalysis = DefaultAnalysisConfig()
	}
	return c
}

// Validate reports whether the configuration is well-formed.
func (c ShardedConfig) Validate() error {
	switch c.Policy {
	case Block, Drop, Sample:
	default:
		return fmt.Errorf("hotprefetch: unknown ingest policy %d", int(c.Policy))
	}
	if c.SampleInterval < 0 {
		return fmt.Errorf("hotprefetch: negative SampleInterval %d", c.SampleInterval)
	}
	if c.MaxGrammarSymbols < 0 {
		return fmt.Errorf("hotprefetch: negative MaxGrammarSymbols %d", c.MaxGrammarSymbols)
	}
	if c.MaxGrammarSymbols > 0 && c.MaxGrammarSymbols < 16 {
		return fmt.Errorf("hotprefetch: MaxGrammarSymbols %d too small to hold any stream (minimum 16)", c.MaxGrammarSymbols)
	}
	if c.AnalysisWorkers < 0 {
		return fmt.Errorf("hotprefetch: negative AnalysisWorkers %d", c.AnalysisWorkers)
	}
	if err := c.Burst.Validate(); err != nil {
		return fmt.Errorf("Burst: %w", err)
	}
	return nil
}
