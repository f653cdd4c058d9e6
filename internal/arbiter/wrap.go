package arbiter

import "github.com/mia-rt/mia/internal/model"

// NonAdditive wraps an arbiter and hides its additivity, forcing the
// schedulers onto their general full-recomputation path. It is the oracle
// the additive fast path is differentially tested against (miasched
// -oracle), and it serves the ablation experiment quantifying that path
// (Section II.C notes that exploiting additivity "could simplify and speed
// up the algorithm").
type NonAdditive struct {
	Inner Arbiter
}

// Name implements Arbiter.
func (n NonAdditive) Name() string { return n.Inner.Name() + "/non-additive" }

// Bound implements Arbiter by delegation.
func (n NonAdditive) Bound(dst Request, competitors []Request, b model.BankID) model.Cycles {
	return n.Inner.Bound(dst, competitors, b)
}

// Additive implements Arbiter: always false, which is the point.
func (n NonAdditive) Additive() bool { return false }
