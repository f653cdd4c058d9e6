package model

// This file holds the MaxInput-checked arithmetic helpers: the only places
// where two runtime model quantities may be multiplied. Validate bounds
// every externally supplied magnitude to MaxInput (2^40) so that *sums* over
// at most 2^20 tasks stay below Infinity (2^62), but a *product* of two
// bounded quantities can reach 2^80 and silently wrap int64. The helpers
// saturate at Infinity instead: Infinity already means "beyond any
// schedulable horizon", so a saturated bound trips the deadline and
// unschedulability checks exactly like the true (unrepresentable) value
// would, keeping the analysis sound where raw multiplication would make it
// optimistic. The boundedinput analyzer (internal/lint) flags raw products
// of model quantities everywhere else and points here.

// satMul64 multiplies two non-negative int64 quantities, saturating at
// Infinity's numeric value (1<<62 - 1) instead of wrapping.
func satMul64(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	const inf = int64(Infinity)
	if a > inf/b {
		return inf
	}
	return a * b
}

// SatMulCycles multiplies two cycle quantities, saturating at Infinity.
// Negative operands (never produced by validated inputs) multiply exactly.
func SatMulCycles(a, b Cycles) Cycles {
	if a < 0 || b < 0 {
		return a * b
	}
	return Cycles(satMul64(int64(a), int64(b)))
}

// ScaleAccesses converts n shared-memory accesses at perAccess cycles each
// into a cycle count, saturating at Infinity. This is the canonical
// slots·latency step of every arbiter interference bound; MaxInput bounds
// each demand summand, but a competitor *sum* times a large configured
// latency can exceed 2^62, and a wrapped bound would report a tighter
// schedule than the true one.
func ScaleAccesses(n Accesses, perAccess Cycles) Cycles {
	if n < 0 || perAccess < 0 {
		return Cycles(n) * perAccess
	}
	return Cycles(satMul64(int64(n), int64(perAccess)))
}
