package regress

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPerfectPowerLaw(t *testing.T) {
	// t = 2·n³ exactly.
	ns := []int{8, 16, 32, 64, 128}
	ts := make([]float64, len(ns))
	for i, n := range ns {
		ts[i] = 2 * math.Pow(float64(n), 3)
	}
	fit, err := LogLog(ns, ts)
	if err != nil {
		t.Fatalf("LogLog: %v", err)
	}
	if math.Abs(fit.Exponent-3) > 1e-9 {
		t.Errorf("exponent = %g, want 3", fit.Exponent)
	}
	if math.Abs(fit.Scale-2) > 1e-9 {
		t.Errorf("scale = %g, want 2", fit.Scale)
	}
	if fit.R2 < 0.999999 {
		t.Errorf("R² = %g, want ≈1", fit.R2)
	}
}

func TestNoisyPowerLaw(t *testing.T) {
	// Deterministic ±10% multiplicative noise must barely move the slope.
	ns := []int{10, 20, 40, 80, 160, 320}
	noise := []float64{1.1, 0.9, 1.05, 0.95, 1.08, 0.93}
	ts := make([]float64, len(ns))
	for i, n := range ns {
		ts[i] = 0.5 * math.Pow(float64(n), 2) * noise[i]
	}
	fit, err := LogLog(ns, ts)
	if err != nil {
		t.Fatalf("LogLog: %v", err)
	}
	if math.Abs(fit.Exponent-2) > 0.1 {
		t.Errorf("exponent = %g, want ≈2", fit.Exponent)
	}
	if fit.R2 < 0.98 {
		t.Errorf("R² = %g", fit.R2)
	}
}

func TestSkipsUnusableSamples(t *testing.T) {
	// Timed-out points are encoded as non-positive times and skipped.
	ns := []int{8, 16, 32, 64}
	ts := []float64{8, 16, -1, math.NaN()}
	fit, err := LogLog(ns, ts)
	if err != nil {
		t.Fatalf("LogLog: %v", err)
	}
	if fit.Points != 2 {
		t.Errorf("Points = %d, want 2", fit.Points)
	}
	if math.Abs(fit.Exponent-1) > 1e-9 {
		t.Errorf("exponent = %g, want 1", fit.Exponent)
	}
}

func TestErrors(t *testing.T) {
	if _, err := LogLog([]int{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := LogLog([]int{8}, []float64{1}); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("one point: err = %v", err)
	}
	if _, err := LogLog([]int{8, 8}, []float64{1, 2}); err == nil {
		t.Error("identical sizes accepted")
	}
	if _, err := LogLog(nil, nil); !errors.Is(err, ErrTooFewPoints) {
		t.Error("empty input accepted")
	}
}

func TestFlatSeries(t *testing.T) {
	fit, err := LogLog([]int{8, 16, 32}, []float64{5, 5, 5})
	if err != nil {
		t.Fatalf("LogLog: %v", err)
	}
	if fit.Exponent != 0 || fit.R2 != 1 {
		t.Errorf("flat series: exponent %g R² %g", fit.Exponent, fit.R2)
	}
}

func TestString(t *testing.T) {
	fit := Fit{Exponent: 1.03, R2: 0.998, Points: 7}
	if s := fit.String(); !strings.Contains(s, "O(n^1.03)") {
		t.Errorf("String = %q", s)
	}
}

func TestRecoversExponentProperty(t *testing.T) {
	// Property: for any exponent in [0.5, 5] and scale in (0, 10], the fit
	// recovers both from exact samples.
	check := func(e8, s8 uint8) bool {
		exp := 0.5 + float64(e8%46)/10    // 0.5 .. 5.0
		scale := 0.1 + float64(s8%100)/10 // 0.1 .. 10
		ns := []int{8, 16, 32, 64, 128, 256}
		ts := make([]float64, len(ns))
		for i, n := range ns {
			ts[i] = scale * math.Pow(float64(n), exp)
		}
		fit, err := LogLog(ns, ts)
		if err != nil {
			return false
		}
		return math.Abs(fit.Exponent-exp) < 1e-6 && math.Abs(fit.Scale-scale)/scale < 1e-6
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
