package incremental

import (
	"math/rand"
	"testing"

	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

// FuzzScheduleInvariants drives the scheduler with byte-seeded random
// graphs and checks that every produced schedule passes the independent
// invariant checker, and that failures are always proper unschedulability
// errors (never panics or silent corruption).
func FuzzScheduleInvariants(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), false)
	f.Add(int64(42), uint8(16), uint8(1), true)
	f.Add(int64(-7), uint8(2), uint8(4), false)
	f.Fuzz(func(t *testing.T, seed int64, coresByte, banksByte uint8, separate bool) {
		cores := int(coresByte)%8 + 1
		banks := int(banksByte)%4 + 1
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		b := model.NewBuilder(cores, banks)
		for i := 0; i < n; i++ {
			b.AddTask(model.TaskSpec{
				WCET:       model.Cycles(rng.Intn(300)),
				Core:       model.CoreID(rng.Intn(cores)),
				MinRelease: model.Cycles(rng.Intn(1000)),
				Local:      model.Accesses(rng.Intn(200)),
			})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(6) == 0 {
					b.AddEdge(model.TaskID(i), model.TaskID(j), model.Accesses(rng.Intn(60)))
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("generator produced invalid graph: %v", err)
		}
		opts := sched.Options{SeparateCompetitors: separate}
		res, err := schedule(g, opts)
		if err != nil {
			t.Fatalf("schedulable DAG rejected: %v", err)
		}
		if err := sched.Check(g, opts, res); err != nil {
			t.Fatalf("invariant violation: %v", err)
		}
	})
}
