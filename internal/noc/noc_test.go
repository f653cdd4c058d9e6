package noc

import (
	"context"
	"strings"
	"testing"

	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/sched"
)

func TestRouteSameCluster(t *testing.T) {
	topo := MPPA256()
	r, err := topo.Route(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 0 {
		t.Fatalf("self route = %v", r)
	}
}

func TestRouteXThenY(t *testing.T) {
	topo := MPPA256() // 4×4: cluster = y*4 + x
	// (0,0) → (2,1): two +x hops then one +y hop.
	r, err := topo.Route(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := []Link{{From: 0, Dir: 0}, {From: 1, Dir: 0}, {From: 2, Dir: 2}}
	if len(r) != len(want) {
		t.Fatalf("route = %v, want %v", r, want)
	}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("route[%d] = %v, want %v", i, r[i], want[i])
		}
	}
}

func TestRouteWrapAround(t *testing.T) {
	topo := MPPA256()
	// (0,0) → (3,0): the torus makes −x (1 hop) shorter than +x (3 hops).
	r, err := topo.Route(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 1 || r[0].Dir != 1 {
		t.Fatalf("route = %v, want single −x wrap hop", r)
	}
}

func TestRouteErrors(t *testing.T) {
	topo := MPPA256()
	if _, err := topo.Route(-1, 0); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := topo.Route(0, 99); err == nil {
		t.Error("out-of-range destination accepted")
	}
	bad := &Topology{Width: 0, Height: 1, LinkCapacity: 1}
	if _, err := bad.Route(0, 0); err == nil {
		t.Error("degenerate topology accepted")
	}
}

func TestLatencyUncontended(t *testing.T) {
	topo := MPPA256()
	f := Flow{From: 0, To: 1, Burst: 4, Rate: 0.25, PacketFlits: 16}
	lat, err := topo.Latency(f, []Flow{f})
	if err != nil {
		t.Fatal(err)
	}
	// 1 hop: 16 flits serialization + 3 router cycles (+1 rounding).
	if lat != 16+3+1 {
		t.Fatalf("latency = %d, want 20", lat)
	}
}

func TestLatencySameClusterIsZero(t *testing.T) {
	topo := MPPA256()
	f := Flow{From: 2, To: 2, Burst: 1, Rate: 0.1, PacketFlits: 64}
	lat, err := topo.Latency(f, []Flow{f})
	if err != nil || lat != 0 {
		t.Fatalf("local latency = %d err %v", lat, err)
	}
}

func TestLatencyContention(t *testing.T) {
	topo := MPPA256()
	a := Flow{Name: "a", From: 0, To: 1, Burst: 8, Rate: 0.25, PacketFlits: 16}
	b := Flow{Name: "b", From: 0, To: 1, Burst: 8, Rate: 0.25, PacketFlits: 16}
	alone, err := topo.Latency(a, []Flow{a})
	if err != nil {
		t.Fatal(err)
	}
	contended, err := topo.Latency(a, []Flow{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// Competitor burst 8 at residual capacity 0.75: + 8/0.75 ≈ 10.7 cycles.
	if contended <= alone {
		t.Fatalf("contended %d ≤ alone %d", contended, alone)
	}
	if contended-alone > 12 {
		t.Fatalf("contention penalty %d, expected ≈11", contended-alone)
	}
}

func TestLatencyDuplicateFlowsBothCount(t *testing.T) {
	topo := MPPA256()
	f := Flow{From: 0, To: 1, Burst: 8, Rate: 0.25, PacketFlits: 16}
	// Two identical flows: analyzing one must count the other.
	two, err := topo.Latency(f, []Flow{f, f})
	if err != nil {
		t.Fatal(err)
	}
	one, err := topo.Latency(f, []Flow{f})
	if err != nil {
		t.Fatal(err)
	}
	if two <= one {
		t.Fatalf("duplicate competitor ignored: %d ≤ %d", two, one)
	}
}

func TestLatencyInstability(t *testing.T) {
	topo := MPPA256()
	a := Flow{Name: "a", From: 0, To: 1, Burst: 1, Rate: 0.6, PacketFlits: 4}
	b := Flow{Name: "b", From: 0, To: 1, Burst: 1, Rate: 0.6, PacketFlits: 4}
	if _, err := topo.Latency(a, []Flow{a, b}); err == nil || !strings.Contains(err.Error(), "unstable") {
		t.Fatalf("err = %v, want instability", err)
	}
}

func TestLatencyMalformedFlow(t *testing.T) {
	topo := MPPA256()
	bad := []Flow{
		{From: 0, To: 1, Burst: -1, Rate: 0.1},
		{From: 0, To: 1, Burst: 1, Rate: 2}, // rate beyond capacity
		{From: 0, To: 1, Burst: 1, Rate: 0.1, PacketFlits: -4},
	}
	for i, f := range bad {
		if _, err := topo.Latency(f, []Flow{f}); err == nil {
			t.Errorf("case %d: malformed flow accepted", i)
		}
	}
}

// twoClusterSystem: producer graph in cluster 0 feeding a consumer graph in
// cluster 1 over the NoC.
func twoClusterSystem(t testing.TB) *System {
	t.Helper()
	b0 := model.NewBuilder(2, 2)
	prod := b0.AddTask(model.TaskSpec{Name: "prod", WCET: 100, Core: 0, Local: 20})
	b0.AddTask(model.TaskSpec{Name: "other", WCET: 50, Core: 1, Local: 10})
	g0 := b0.MustBuild()

	b1 := model.NewBuilder(2, 2)
	cons := b1.AddTask(model.TaskSpec{Name: "cons", WCET: 80, Core: 0, Local: 15})
	b1.AddTask(model.TaskSpec{Name: "side", WCET: 60, Core: 1, Local: 10})
	g1 := b1.MustBuild()

	return &System{
		Topology: MPPA256(),
		Graphs:   map[ClusterID]*model.Graph{0: g0, 1: g1},
		Edges: []InterEdge{{
			FromCluster: 0, FromTask: prod,
			ToCluster: 1, ToTask: cons,
			Flow: Flow{Burst: 8, Rate: 0.25, PacketFlits: 32},
		}},
	}
}

func TestMultiClusterAnalysis(t *testing.T) {
	s := twoClusterSystem(t)
	res, err := s.Analyze(context.Background(), sched.Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(res.Schedules) != 2 {
		t.Fatalf("schedules = %d", len(res.Schedules))
	}
	prodFinish := res.Schedules[0].Finish(0)
	consRelease := res.Schedules[1].Release[0]
	if consRelease < prodFinish+res.EdgeLatency[0] {
		t.Fatalf("consumer released at %d before producer finish %d + NoC %d",
			consRelease, prodFinish, res.EdgeLatency[0])
	}
	if res.EdgeLatency[0] <= 0 {
		t.Fatal("NoC latency not accounted")
	}
	if res.Makespan < res.Schedules[1].Makespan {
		t.Fatal("makespan not global")
	}
	if res.Rounds < 2 {
		t.Fatalf("rounds = %d, want ≥ 2 (must re-verify after constraint propagation)", res.Rounds)
	}
}

func TestMultiClusterInputUntouched(t *testing.T) {
	s := twoClusterSystem(t)
	before := s.Graphs[1].MinRelease[0]
	if _, err := s.Analyze(context.Background(), sched.Options{}); err != nil {
		t.Fatal(err)
	}
	if s.Graphs[1].MinRelease[0] != before {
		t.Fatal("Analyze mutated the input graph")
	}
}

func TestMultiClusterChainPropagates(t *testing.T) {
	// Three clusters in a chain: constraints must propagate transitively.
	mk := func(name string) *model.Graph {
		b := model.NewBuilder(1, 1)
		b.AddTask(model.TaskSpec{Name: name, WCET: 50, Local: 10})
		return b.MustBuild()
	}
	s := &System{
		Topology: MPPA256(),
		Graphs:   map[ClusterID]*model.Graph{0: mk("a"), 1: mk("b"), 2: mk("c")},
		Edges: []InterEdge{
			{FromCluster: 0, FromTask: 0, ToCluster: 1, ToTask: 0, Flow: Flow{Burst: 2, Rate: 0.1, PacketFlits: 8}},
			{FromCluster: 1, FromTask: 0, ToCluster: 2, ToTask: 0, Flow: Flow{Burst: 2, Rate: 0.1, PacketFlits: 8}},
		},
	}
	res, err := s.Analyze(context.Background(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	relB := res.Schedules[1].Release[0]
	relC := res.Schedules[2].Release[0]
	if relB < 50+res.EdgeLatency[0] {
		t.Fatalf("cluster 1 release %d too early", relB)
	}
	if relC < relB+50+res.EdgeLatency[1] {
		t.Fatalf("cluster 2 release %d too early (cluster 1 finishes %d)", relC, relB+50)
	}
}

func TestMultiClusterErrors(t *testing.T) {
	s := twoClusterSystem(t)
	s.Edges[0].ToTask = 99
	if _, err := s.Analyze(context.Background(), sched.Options{}); err == nil {
		t.Error("unknown consumer accepted")
	}
	s = twoClusterSystem(t)
	s.Edges[0].ToCluster = 0
	s.Edges[0].ToTask = 1
	if _, err := s.Analyze(context.Background(), sched.Options{}); err == nil {
		t.Error("intra-cluster edge accepted")
	}
	s = twoClusterSystem(t)
	s.Topology = nil
	if _, err := s.Analyze(context.Background(), sched.Options{}); err == nil {
		t.Error("nil topology accepted")
	}
	s = twoClusterSystem(t)
	s.Graphs[99] = s.Graphs[0]
	if _, err := s.Analyze(context.Background(), sched.Options{}); err == nil {
		t.Error("out-of-topology cluster accepted")
	}
}

func TestMultiClusterCircularDiverges(t *testing.T) {
	mk := func(name string) *model.Graph {
		b := model.NewBuilder(1, 1)
		b.AddTask(model.TaskSpec{Name: name, WCET: 50, Local: 10})
		return b.MustBuild()
	}
	s := &System{
		Topology: MPPA256(),
		Graphs:   map[ClusterID]*model.Graph{0: mk("a"), 1: mk("b")},
		Edges: []InterEdge{
			{FromCluster: 0, FromTask: 0, ToCluster: 1, ToTask: 0, Flow: Flow{Burst: 2, Rate: 0.1, PacketFlits: 8}},
			{FromCluster: 1, FromTask: 0, ToCluster: 0, ToTask: 0, Flow: Flow{Burst: 2, Rate: 0.1, PacketFlits: 8}},
		},
	}
	if _, err := s.Analyze(context.Background(), sched.Options{}); err == nil || !strings.Contains(err.Error(), "converge") {
		t.Fatalf("err = %v, want divergence report", err)
	}
}
