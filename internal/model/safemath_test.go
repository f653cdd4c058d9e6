package model

import "testing"

func TestSatMulCycles(t *testing.T) {
	const inf = Infinity
	tests := []struct {
		name string
		a, b Cycles
		want Cycles
	}{
		{"zero left", 0, inf, 0},
		{"zero right", inf, 0, 0},
		{"small exact", 7, 6, 42},
		{"max-input product saturates", 1 << 40, 1 << 40, inf},
		{"just below saturation", 1 << 31, 1 << 30, 1 << 61},
		{"at the boundary", inf, 1, inf},
		{"past the boundary", inf, 2, inf},
		{"negative multiplies exactly", -3, 5, -15},
		{"both negative multiplies exactly", -3, -5, 15},
	}
	for _, tc := range tests {
		if got := SatMulCycles(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: SatMulCycles(%d, %d) = %d, want %d", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSatMulCyclesNeverBelowExactOnSaturation(t *testing.T) {
	// Saturation must only ever round up to Infinity, never produce a value
	// below the true product: a low result would loosen an interference
	// bound. Walk a grid of magnitudes around the saturation threshold.
	for _, a := range []Cycles{1, 1 << 20, 1 << 31, 1 << 40, 1 << 52, Infinity} {
		for _, b := range []Cycles{1, 1 << 10, 1 << 22, 1 << 31, Infinity} {
			got := SatMulCycles(a, b)
			if got == Infinity {
				continue // saturated: conservative by construction
			}
			if got != a*b {
				t.Fatalf("SatMulCycles(%d, %d) = %d, want exact %d", a, b, got, a*b)
			}
			if got < 0 {
				t.Fatalf("SatMulCycles(%d, %d) wrapped to %d", a, b, got)
			}
		}
	}
}

func TestScaleAccesses(t *testing.T) {
	if got := ScaleAccesses(10, 5); got != 50 {
		t.Errorf("ScaleAccesses(10, 5) = %d, want 50", got)
	}
	// The motivating case: a competitor demand sum near the MaxInput scale
	// times a large word latency used to wrap int64 and report a bound far
	// below the true interference.
	if got := ScaleAccesses(1<<41, 1<<22); got != Infinity {
		t.Errorf("ScaleAccesses(2^41, 2^22) = %d, want Infinity", got)
	}
	if got := ScaleAccesses(-1, 5); got != -5 {
		t.Errorf("ScaleAccesses(-1, 5) = %d, want exact -5", got)
	}
}
