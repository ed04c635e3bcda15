package burst

import (
	"math"
	"testing"
)

// Regression: an all-zero Config used to make SamplingRate and OverallRate
// divide by zero, leaking NaN into the Prometheus gauges built from them.
func TestRatesZeroConfig(t *testing.T) {
	var c Config
	if r := c.SamplingRate(); r != 0 || math.IsNaN(r) {
		t.Errorf("SamplingRate on zero config = %v, want 0", r)
	}
	if r := c.OverallRate(); r != 0 || math.IsNaN(r) {
		t.Errorf("OverallRate on zero config = %v, want 0", r)
	}
	// Partially-zero configs hit the other zero-denominator shapes.
	for _, c := range []Config{
		{NAwake0: 50, NHibernate0: 2450},                        // nCheck0+nInstr0 == 0
		{NCheck0: 11940, NInstr0: 60},                           // nAwake0+nHibernate0 == 0
		{NCheck0: -60, NInstr0: 60, NAwake0: 1, NHibernate0: 1}, // negative sum
	} {
		if r := c.SamplingRate(); math.IsNaN(r) || math.IsInf(r, 0) {
			t.Errorf("SamplingRate(%+v) = %v, want finite", c, r)
		}
		if r := c.OverallRate(); math.IsNaN(r) || math.IsInf(r, 0) {
			t.Errorf("OverallRate(%+v) = %v, want finite", c, r)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := PaperConfig().Validate(); err != nil {
		t.Errorf("paper config must validate: %v", err)
	}
	for _, c := range []Config{
		{},
		{NCheck0: 11940, NInstr0: 0, NAwake0: 50, NHibernate0: 2450},
		{NCheck0: 0, NInstr0: 60, NAwake0: 50, NHibernate0: 2450},
		{NCheck0: 11940, NInstr0: 60, NAwake0: 0, NHibernate0: 2450},
		{NCheck0: 11940, NInstr0: 60, NAwake0: 50, NHibernate0: 0},
		{NCheck0: -1, NInstr0: 60, NAwake0: 50, NHibernate0: 2450},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

// The paper's configuration must still report its published rates.
func TestPaperRates(t *testing.T) {
	c := PaperConfig()
	if got, want := c.SamplingRate(), 0.005; got != want {
		t.Errorf("paper SamplingRate = %v, want %v", got, want)
	}
	if got := c.OverallRate(); math.Abs(got-0.0001) > 1e-9 {
		t.Errorf("paper OverallRate = %v, want 0.0001", got)
	}
}
