package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// coreScopes are the package-path fragments of the analysis core: the code
// whose outputs must be bit-identical across runs, schedulers, and
// warm/cold replays. Fragment matching (rather than exact module paths)
// lets the same analyzer run over the test fixture modules.
var coreScopes = []string{
	"internal/model",
	"internal/sched",
	"internal/arbiter",
	"internal/rta",
	"internal/engine",
	"internal/wire",
	// The shard ring places members on the hash circle; DESIGN §3.9 requires
	// point placement to stay a pure function of the member list, or two
	// routers disagree about ownership mid-failover.
	"internal/shard",
	// The stream protocol writes result-line prefixes and trailers into
	// replies that must be byte-identical between a shard and the router.
	"internal/ndjson",
	// The search (objectives and the NSGA-II front in package pareto)
	// promises byte-identical Pareto output at any -jobs level and across
	// repeated seeded runs (DESIGN §3.11); a stray wall-clock read, global
	// rand draw, or map-order leak breaks that contract silently.
	"internal/explore",
}

// inAnalysisCore reports whether a package path belongs to the
// deterministic analysis core.
func inAnalysisCore(pkgPath string) bool {
	for _, s := range coreScopes {
		if strings.Contains(pkgPath, s) {
			return true
		}
	}
	return false
}

// seededConstructors are the math/rand entry points that build an explicit,
// caller-seeded generator; everything else at package scope draws from (or
// reseeds) process-global state and is banned in the core.
var seededConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// Determinism guards the paper's offline-analysis contract: results are a
// pure function of (graph, options). The warm-start differential suites
// compare schedules byte-for-byte, so a wall-clock read, an unseeded random
// draw, or a map iteration whose order leaks into output or accumulation
// breaks the guarantee in a way no unit test reliably catches.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid time.Now, unseeded math/rand, and unordered map iteration in the analysis core",
	Run:  runDeterminism,
}

func runDeterminism(p *Pass) error {
	if !inAnalysisCore(p.Pkg.PkgPath) {
		return nil
	}
	p.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := p.calleeFunc(n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			pkgLevel := sig != nil && sig.Recv() == nil
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" && pkgLevel {
					p.Reportf(n.Pos(), "time.Now in the analysis core; wall-clock reads make warm and cold runs diverge — measure time in the caller and pass it in")
				}
			case "math/rand", "math/rand/v2":
				if pkgLevel && !seededConstructors[fn.Name()] {
					p.Reportf(n.Pos(), "unseeded %s.%s draws from process-global state; use an explicit rand.New(rand.NewSource(seed)) generator so runs are reproducible", fn.Pkg().Name(), fn.Name())
				}
			}
		case *ast.RangeStmt:
			if n.X == nil {
				return true
			}
			if tv, ok := p.Pkg.Info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					p.Reportf(n.Pos(), "map iteration order is nondeterministic and this package feeds schedules and serialized output; iterate sorted keys, or justify with //mialint:ignore determinism -- <why order cannot be observed>")
				}
			}
		}
		return true
	})
	return nil
}
