// Package fault provides deterministic, seedable fault injection for the
// hotprefetch profiling service. The service's supervision points (the
// background analysis pool, the ring-buffer producers, and the supervisor's
// accuracy sampler) consult an Injector before doing real work; a nil
// injector — the default — disables every point with a single branch of
// overhead, so production builds pay nothing for the chaos hooks.
//
// Injection decisions are driven by a splitmix64 sequence keyed on a seed
// and a per-point draw counter, so the schedule of injected faults for a
// given seed is reproducible run to run: draw i at point p always yields the
// same verdict regardless of which goroutine consumes it. Implementations
// count what they actually injected, letting chaos tests reconcile the
// service's failure accounting against the injected schedule.
package fault

import (
	"sync/atomic"
	"time"
)

// Outcome is one analysis-point decision: delay the job, make it panic, or
// both (the delay is applied first, so a delayed panic is a slow failure).
type Outcome struct {
	Delay time.Duration
	Panic bool
}

// Injector is the hook interface compiled into the service's supervision
// points. All methods must be safe for concurrent use; every method is
// consulted from hot service goroutines, so implementations should be
// allocation-free.
type Injector interface {
	// Analysis is consulted once per cycle-end analysis (background pool
	// job or inline cycle) for the given shard, before the analysis runs.
	Analysis(shard int) Outcome

	// RingFull reports whether the producer's next push to the given
	// shard's ring should be treated as if the ring were full, simulating
	// back-pressure without needing a stalled consumer.
	RingFull(shard int) bool

	// MatcherStale reports whether the supervisor should treat the current
	// accuracy window as zero — forcing the matcher to look stale so the
	// deoptimization path can be driven on demand.
	MatcherStale() bool
}

// splitmix64 is the SplitMix64 output function: a bijective mixer whose
// outputs pass BigCrush, cheap enough for per-decision use.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns a uniform value in [0,1) for decision number seq at point
// salt under the given seed.
func draw(seed, salt, seq uint64) float64 {
	return float64(splitmix64(seed^salt*0x9e3779b97f4a7c15^seq)>>11) / float64(1<<53)
}

// Point salts keep the per-point sequences independent under one seed.
const (
	saltPanic = 1 + iota
	saltDelay
	saltRing
	saltStale
	saltCorrupt
)

// SeededConfig configures a Seeded injector. Rates are probabilities in
// [0,1]; a zero rate disables that point.
type SeededConfig struct {
	// Seed keys every decision sequence; the same seed reproduces the same
	// schedule.
	Seed uint64

	// PanicRate is the fraction of analyses that panic.
	PanicRate float64

	// DelayRate is the fraction of analyses delayed by Delay before they
	// run: a slow analysis, not a failed one. The profile sleeps the delay
	// on its own clock, so a test that substitutes a fake clock must advance
	// it past Delay.
	DelayRate float64
	Delay     time.Duration

	// RingFullRate is the fraction of producer pushes that see a
	// simulated full ring.
	RingFullRate float64

	// StaleRate is the fraction of supervisor accuracy windows forced to
	// zero.
	StaleRate float64
}

// Seeded is a deterministic Injector: each point draws from its own
// seed-keyed splitmix64 sequence and counts what it injected.
type Seeded struct {
	cfg SeededConfig

	panicSeq, delaySeq, ringSeq, staleSeq atomic.Uint64
	panics, delays, ringFulls, stales     atomic.Uint64
}

// NewSeeded returns a deterministic injector for cfg.
func NewSeeded(cfg SeededConfig) *Seeded { return &Seeded{cfg: cfg} }

// Analysis implements Injector.
func (s *Seeded) Analysis(shard int) Outcome {
	var out Outcome
	if s.cfg.DelayRate > 0 && draw(s.cfg.Seed, saltDelay, s.delaySeq.Add(1)) < s.cfg.DelayRate {
		out.Delay = s.cfg.Delay
		s.delays.Add(1)
	}
	if s.cfg.PanicRate > 0 && draw(s.cfg.Seed, saltPanic, s.panicSeq.Add(1)) < s.cfg.PanicRate {
		out.Panic = true
		s.panics.Add(1)
	}
	return out
}

// RingFull implements Injector.
func (s *Seeded) RingFull(shard int) bool {
	if s.cfg.RingFullRate > 0 && draw(s.cfg.Seed, saltRing, s.ringSeq.Add(1)) < s.cfg.RingFullRate {
		s.ringFulls.Add(1)
		return true
	}
	return false
}

// MatcherStale implements Injector.
func (s *Seeded) MatcherStale() bool {
	if s.cfg.StaleRate > 0 && draw(s.cfg.Seed, saltStale, s.staleSeq.Add(1)) < s.cfg.StaleRate {
		s.stales.Add(1)
		return true
	}
	return false
}

// Panics returns the number of analysis panics injected so far.
func (s *Seeded) Panics() uint64 { return s.panics.Load() }

// Delays returns the number of analysis delays injected so far.
func (s *Seeded) Delays() uint64 { return s.delays.Load() }

// RingFulls returns the number of simulated full-ring pushes so far.
func (s *Seeded) RingFulls() uint64 { return s.ringFulls.Load() }

// Stales returns the number of accuracy windows forced stale so far.
func (s *Seeded) Stales() uint64 { return s.stales.Load() }

// Hooks is a function-valued Injector for targeted tests: nil fields are
// inert, so a test can drive exactly one point.
type Hooks struct {
	AnalysisFn     func(shard int) Outcome
	RingFullFn     func(shard int) bool
	MatcherStaleFn func() bool
}

// Analysis implements Injector.
func (h *Hooks) Analysis(shard int) Outcome {
	if h.AnalysisFn == nil {
		return Outcome{}
	}
	return h.AnalysisFn(shard)
}

// RingFull implements Injector.
func (h *Hooks) RingFull(shard int) bool {
	return h.RingFullFn != nil && h.RingFullFn(shard)
}

// MatcherStale implements Injector.
func (h *Hooks) MatcherStale() bool {
	return h.MatcherStaleFn != nil && h.MatcherStaleFn()
}

// Corruptor deterministically corrupts byte buffers for durable-state chaos
// tests: each call draws the next value of a seed-keyed splitmix64 sequence
// to pick an offset and a bit (or a truncation point), so a chaos matrix's
// corruption schedule reproduces run to run exactly like the Seeded
// injector's fault schedule.
type Corruptor struct {
	seed  uint64
	seq   atomic.Uint64
	flips atomic.Uint64
}

// NewCorruptor returns a deterministic corruptor for the seed.
func NewCorruptor(seed uint64) *Corruptor { return &Corruptor{seed: seed} }

// next returns the sequence's next raw draw, keyed like draw's per-point
// sequences (the salt product wraps, hence the non-constant operand).
func (c *Corruptor) next() uint64 {
	salt := uint64(saltCorrupt)
	return splitmix64(c.seed ^ salt*0x9e3779b97f4a7c15 ^ c.seq.Add(1))
}

// FlipBit flips one schedule-determined bit of buf in place and returns the
// byte offset it touched, or -1 for an empty buffer.
func (c *Corruptor) FlipBit(buf []byte) int {
	if len(buf) == 0 {
		return -1
	}
	r := c.next()
	off := int(r % uint64(len(buf)))
	buf[off] ^= 1 << ((r >> 32) % 8)
	c.flips.Add(1)
	return off
}

// Truncate returns a schedule-determined strict prefix of buf (possibly
// empty; always shorter than buf when buf is non-empty).
func (c *Corruptor) Truncate(buf []byte) []byte {
	if len(buf) == 0 {
		return buf
	}
	return buf[:int(c.next()%uint64(len(buf)))]
}

// Flips returns the number of bits flipped so far.
func (c *Corruptor) Flips() uint64 { return c.flips.Load() }
