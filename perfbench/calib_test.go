package main

import (
	"math"
	"testing"
)

func TestHostFactor(t *testing.T) {
	if got := hostFactor([]float64{calibRefNs, calibRefNs, calibRefNs}); !near(got, 1) {
		t.Errorf("factor at the reference speed = %v, want 1", got)
	}
	// Twice the reference time: the timings are halved.
	if got := hostFactor([]float64{2 * calibRefNs}); !near(got, 2) {
		t.Errorf("factor at half the reference speed = %v, want 2", got)
	}
	// The median decides: one sample caught by a burst does not move it.
	if got := hostFactor([]float64{calibRefNs, calibRefNs, 50 * calibRefNs}); !near(got, 1) {
		t.Errorf("factor with one outlier = %v, want 1", got)
	}
	if !math.IsNaN(hostFactor(nil)) {
		t.Error("factor of no samples should be NaN, so a run without calibration cannot report a timing")
	}
}

func TestCalibratorSamples(t *testing.T) {
	var none *calibrator
	if xs := none.samples(nil); len(xs) != 0 {
		t.Errorf("a nil calibrator took %d samples", len(xs))
	}
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	xs := c.samples(make([]float64, 0, calibSamples))
	if len(xs) != calibSamples {
		t.Fatalf("took %d samples, want %d", len(xs), calibSamples)
	}
	for _, x := range xs {
		if x <= 0 {
			t.Errorf("sample %v ns is not positive", x)
		}
	}
	if allocs := testing.AllocsPerRun(4, func() { xs = c.samples(xs[:0]) }); allocs != 0 {
		t.Errorf("sampling allocated %v times per run", allocs)
	}
}
