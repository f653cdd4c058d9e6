package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/mia-rt/mia/internal/arbiter"
	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// Metamorphic properties of the analysis, checked on seeded random
// instances: transformations of the input with a known effect on the output.
// Unlike the differential suite, which needs a second implementation as the
// oracle, these tests need only the analysis itself — the oracle is the
// relation between two of its runs.

// metamorphicInstances is the seeded instance pool shared by the properties:
// both families, square and shared-bank platforms.
func metamorphicInstances() []gen.Params {
	var out []gen.Params
	for _, shape := range []struct{ layers, size int }{{6, 8}, {4, 12}} {
		for _, pl := range []struct {
			cores, banks int
			shared       bool
		}{{8, 8, false}, {4, 1, true}} {
			for seed := int64(1); seed <= 5; seed++ {
				p := gen.NewParams(shape.layers, shape.size)
				p.Seed = seed
				p.Cores, p.Banks, p.SharedBank = pl.cores, pl.banks, pl.shared
				out = append(out, p)
			}
		}
	}
	return out
}

// rebuild reconstructs g through the Builder with a task relabeling π
// (new ID of old task i is π[i]), a core relabeling σ (new core of old core
// k is σ[k]), and demands scaled by λ. Per-core execution orders and the
// core→bank association ride along: new core σ[k] keeps old core k's order
// (relabeled) and bank, so the schedule is the same up to names.
func rebuild(t *testing.T, g *model.Graph, π []model.TaskID, σ []model.CoreID, λ model.Accesses) *model.Graph {
	t.Helper()
	n := g.NumTasks()
	πinv := make([]model.TaskID, n)
	for old, new_ := range π {
		πinv[new_] = model.TaskID(old)
	}
	σinv := make([]model.CoreID, g.Cores)
	for old, new_ := range σ {
		σinv[new_] = model.CoreID(old)
	}
	b := model.NewBuilder(g.Cores, g.Banks)
	for j := 0; j < n; j++ {
		old := πinv[j]
		b.AddTask(model.TaskSpec{
			Name:       g.Name(old),
			WCET:       g.WCET[old],
			Core:       σ[g.Core[old]],
			MinRelease: g.MinRelease[old],
			Local:      g.Local[old] * λ,
		})
	}
	for _, e := range g.Edges() {
		b.AddEdge(π[e.From], π[e.To], e.Words*λ)
	}
	for k := 0; k < g.Cores; k++ {
		order := g.Order(model.CoreID(k))
		relabeled := make([]model.TaskID, len(order))
		for i, id := range order {
			relabeled[i] = π[id]
		}
		b.SetOrder(σ[model.CoreID(k)], relabeled)
	}
	// New core σ[k] uses old core k's bank, so each task's demand vector is
	// unchanged by the core relabeling.
	b.SetBankPolicy(func(c model.CoreID) model.BankID { return g.BankTable[σinv[c]] })
	out, err := b.Build()
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	return out
}

// identityTasks and identityCores are the trivial relabelings.
func identityTasks(n int) []model.TaskID {
	π := make([]model.TaskID, n)
	for i := range π {
		π[i] = model.TaskID(i)
	}
	return π
}

func identityCores(c int) []model.CoreID {
	σ := make([]model.CoreID, c)
	for i := range σ {
		σ[i] = model.CoreID(i)
	}
	return σ
}

func analyze(t *testing.T, backend string, g *model.Graph, opts sched.Options) *sched.Result {
	t.Helper()
	img, err := engine.Compile(g, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := engine.MustNew(backend).Analyze(context.Background(), img)
	if err != nil {
		t.Fatalf("%s analyze: %v", backend, err)
	}
	return res
}

// TestMetamorphicTaskRelabel: renumbering the tasks (and relabeling edges
// and orders accordingly) permutes the result arrays and changes nothing
// else. The analysis must not depend on task IDs beyond indexing — only on
// cores, orders, dependencies and demands.
func TestMetamorphicTaskRelabel(t *testing.T) {
	for ii, p := range metamorphicInstances() {
		g := gen.MustLayered(p)
		n := g.NumTasks()
		rng := rand.New(rand.NewSource(int64(ii) + 100))
		π := identityTasks(n)
		rng.Shuffle(n, func(a, b int) { π[a], π[b] = π[b], π[a] })
		relabeled := rebuild(t, g, π, identityCores(g.Cores), 1)

		for _, backend := range []string{engine.Incremental, engine.Fixpoint, engine.RTA} {
			opts := sched.Options{Arbiter: arbiter.NewRoundRobin(1)}
			base := analyze(t, backend, g, opts)
			got := analyze(t, backend, relabeled, opts)
			label := fmt.Sprintf("instance[%d] %s", ii, backend)
			if got.Makespan != base.Makespan {
				t.Fatalf("%s: makespan %d != %d under task relabel", label, got.Makespan, base.Makespan)
			}
			for i := 0; i < n; i++ {
				j := π[i]
				if got.Release[j] != base.Release[i] || got.Response[j] != base.Response[i] ||
					got.Interference[j] != base.Interference[i] {
					t.Fatalf("%s: task %d (relabeled %d) diverges: rel %d/%d resp %d/%d inter %d/%d",
						label, i, j, got.Release[j], base.Release[i],
						got.Response[j], base.Response[i], got.Interference[j], base.Interference[i])
				}
				for b := range base.PerBank[i] {
					if got.PerBank[j][b] != base.PerBank[i][b] {
						t.Fatalf("%s: task %d bank %d: %d != %d", label, i, b, got.PerBank[j][b], base.PerBank[i][b])
					}
				}
			}
		}
	}
}

// TestMetamorphicCoreRelabel: renumbering the cores (each keeping its task
// sequence and its bank) leaves every per-task quantity unchanged under a
// core-symmetric arbiter. Interference exchange must depend on which tasks
// share banks, not on which integer names their cores carry.
func TestMetamorphicCoreRelabel(t *testing.T) {
	for ii, p := range metamorphicInstances() {
		g := gen.MustLayered(p)
		rng := rand.New(rand.NewSource(int64(ii) + 200))
		σ := identityCores(g.Cores)
		rng.Shuffle(len(σ), func(a, b int) { σ[a], σ[b] = σ[b], σ[a] })
		relabeled := rebuild(t, g, identityTasks(g.NumTasks()), σ, 1)

		for _, backend := range []string{engine.Incremental, engine.Fixpoint, engine.RTA} {
			opts := sched.Options{Arbiter: arbiter.NewRoundRobin(1)}
			base := analyze(t, backend, g, opts)
			got := analyze(t, backend, relabeled, opts)
			identical(t, fmt.Sprintf("instance[%d] %s core-relabel", ii, backend), got, base)
		}
	}
}

// TestMetamorphicDemandScaling: multiplying every memory demand (local
// accesses and edge volumes) by an integer λ > 1 can only increase makespan
// and every task's interference — the monotonicity direction of the paper's
// §II.C hypothesis, lifted to demands.
func TestMetamorphicDemandScaling(t *testing.T) {
	for ii, p := range metamorphicInstances() {
		g := gen.MustLayered(p)
		n := g.NumTasks()
		for _, λ := range []model.Accesses{2, 3} {
			scaled := rebuild(t, g, identityTasks(n), identityCores(g.Cores), λ)
			for _, backend := range []string{engine.Incremental, engine.Fixpoint, engine.RTA} {
				opts := sched.Options{Arbiter: arbiter.NewRoundRobin(1)}
				base := analyze(t, backend, g, opts)
				got := analyze(t, backend, scaled, opts)
				label := fmt.Sprintf("instance[%d] %s λ=%d", ii, backend, λ)
				if got.Makespan < base.Makespan {
					t.Fatalf("%s: makespan shrank %d → %d under demand scaling", label, base.Makespan, got.Makespan)
				}
				var baseTotal, gotTotal model.Cycles
				for i := 0; i < n; i++ {
					baseTotal += base.Interference[i]
					gotTotal += got.Interference[i]
				}
				if gotTotal < baseTotal {
					t.Fatalf("%s: total interference shrank %d → %d under demand scaling", label, baseTotal, gotTotal)
				}
			}
		}
	}
}
