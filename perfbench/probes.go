package main

import (
	"bytes"
	"context"
	"time"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/gen"
	"github.com/mia-rt/mia/internal/model"
	"github.com/mia-rt/mia/internal/regress"
	"github.com/mia-rt/mia/internal/sched"
	"github.com/mia-rt/mia/internal/wire"
)

// The probes time calls into each layer's public functions, in process and
// with nothing else running, on inputs the traced run names. They are what
// a traced request's span is split by: a shard span minus the probed layer
// calls for its exact input is the server's own time.

// timeIt runs fn once and returns its wall time.
func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// medianOf runs fn n times and returns the median wall time.
func medianOf(n int, fn func()) time.Duration {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(timeIt(fn))
	}
	return time.Duration(median(v))
}

// ingestTimes are the ingest and compile layer costs of one graph.
type ingestTimes struct {
	json, wire, compile, cold time.Duration
	jsonBytes                 int
}

// probeIngest times model.ReadJSON on the graph's JSON encoding,
// engine.CompileFromWire on its wire encoding, engine.Compile, and a cold
// Engine.Analyze of the compiled image.
func probeIngest(body []byte, g *model.Graph) (ingestTimes, error) {
	var t ingestTimes
	if body == nil {
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			return t, err
		}
		body = buf.Bytes()
	}
	t.jsonBytes = len(body)
	var err error
	t.json = timeIt(func() { _, err = model.ReadJSON(bytes.NewReader(body)) })
	if err != nil {
		return t, err
	}
	blob := wire.EncodeGraph(g)
	t.wire = timeIt(func() { _, err = engine.CompileFromWire(blob, sched.Options{}) })
	if err != nil {
		return t, err
	}
	var img *engine.Image
	t.compile = timeIt(func() { img, err = engine.Compile(g, sched.Options{}) })
	if err != nil {
		return t, err
	}
	t.cold = timeIt(func() { _, err = eng.Analyze(context.Background(), img) })
	return t, err
}

// warmReplay evaluates what-if scenarios exactly as a shard worker does:
// against a warm analyzer holding the unedited baseline, apply the swaps to
// the order overlay, fingerprint the edited orders, replay from the first
// edited position, and undo the swaps.
type warmReplay struct {
	img  *engine.Image
	w    engine.Warm
	cold time.Duration // the baseline's cold analysis, i.e. a warm-LRU miss
}

func newWarmReplay(img *engine.Image) (*warmReplay, error) {
	r := &warmReplay{img: img, w: eng.NewWarm(img)}
	var err error
	r.cold = timeIt(func() { _, err = r.w.Analyze(context.Background()) })
	return r, err
}

func (r *warmReplay) close() { engine.CloseWarm(r.w) }

// eval returns the fingerprint and replay times of one scenario, and the
// fingerprint of the configuration it reaches.
func (r *warmReplay) eval(swaps []Swap) (fp, kernel time.Duration, key string, err error) {
	ord := r.w.Orders()
	first := map[model.CoreID]int{}
	for _, s := range swaps {
		ord.Swap(model.CoreID(s.Core), s.Pos)
		if cur, ok := first[model.CoreID(s.Core)]; !ok || s.Pos < cur {
			first[model.CoreID(s.Core)] = s.Pos
		}
	}
	defer func() {
		for i := len(swaps) - 1; i >= 0; i-- {
			ord.Swap(model.CoreID(swaps[i].Core), swaps[i].Pos)
		}
	}()
	edits := make([]engine.Edit, 0, len(first))
	for k := 0; k < r.img.Cores; k++ {
		if pos, ok := first[model.CoreID(k)]; ok {
			edits = append(edits, engine.Edit{Core: model.CoreID(k), From: pos})
		}
	}
	fp = timeIt(func() { key = r.img.FingerprintOrders(ord) })
	kernel = timeIt(func() { _, err = r.w.Reschedule(context.Background(), edits...) })
	return fp, kernel, key, err
}

// scaleProbe times cold Engine.Analyze of the LS64 family at paper scale
// (6×64 = 384 tasks) and 10× scale (60×64 = 3,840), sequentially and, at
// 3,840, with sched.Options.Parallelism 2. The exponent is fitted the way
// results/scale.txt is (regress.LogLog).
type scaleProbe struct {
	ns384, ns3840 float64 // ns per task
	exponent      float64 // log-log slope between the two sizes
	par2Speedup   float64 // P=1 time ÷ P=2 time at 3,840
}

func runScaleProbe() (scaleProbe, error) {
	var sp scaleProbe
	analyze := func(layers int, par int, reps int) (time.Duration, error) {
		p := gen.NewParams(layers, 64)
		g, err := gen.Layered(p)
		if err != nil {
			return 0, err
		}
		img, err := engine.Compile(g, sched.Options{Parallelism: par})
		if err != nil {
			return 0, err
		}
		var aerr error
		d := medianOf(reps, func() {
			if _, err := eng.Analyze(context.Background(), img); err != nil {
				aerr = err
			}
		})
		return d, aerr
	}
	small, err := analyze(6, 1, 15)
	if err != nil {
		return sp, err
	}
	large, err := analyze(60, 1, 5)
	if err != nil {
		return sp, err
	}
	par, err := analyze(60, 2, 5)
	if err != nil {
		return sp, err
	}
	sp.ns384 = float64(small) / 384
	sp.ns3840 = float64(large) / 3840
	fit, err := regress.LogLog([]int{384, 3840}, []float64{float64(small), float64(large)})
	if err != nil {
		return sp, err
	}
	sp.exponent = fit.Exponent
	sp.par2Speedup = float64(large) / float64(par)
	return sp, nil
}

// searchProbe times the search layer's evaluation paths on the paper-scale
// instance: order-only mutants (Orders.SetOrder + FingerprintOrders +
// Warm.Analyze, what the NSGA-II worker does for an order genome) and
// structural mutants (NewGraph + CompileDemands under a rotated bank table
// + engine.Compile + Engine.Analyze, its path for a repolicied genome).
func searchProbe(img *engine.Image, seed int64) (order, structural time.Duration, err error) {
	sg := newScenarioGen(img, seed)
	w := eng.NewWarm(img)
	defer engine.CloseWarm(w)
	const n = 16
	var ot, st []float64
	for i := 0; i < n; i++ {
		orders := make([][]model.TaskID, img.Cores)
		for k := range orders {
			orders[k] = append([]model.TaskID(nil), img.Order(model.CoreID(k))...)
		}
		for _, s := range sg.scenario() {
			o := orders[s.Core]
			o[s.Pos], o[s.Pos+1] = o[s.Pos+1], o[s.Pos]
		}
		ot = append(ot, float64(timeIt(func() {
			ord := w.Orders()
			for k := range orders {
				ord.SetOrder(model.CoreID(k), orders[k])
			}
			_ = img.FingerprintOrders(ord)
			if _, e := w.Analyze(context.Background()); e != nil {
				err = e
			}
		})))
		shift := 1 + i%(img.Cores-1)
		st = append(st, float64(timeIt(func() {
			g := img.NewGraph()
			for k := range orders {
				g.SetOrder(model.CoreID(k), orders[k])
			}
			g.CompileDemands(func(k model.CoreID) model.BankID {
				return img.BankTable[(int(k)+shift)%img.Cores]
			})
			im, e := engine.Compile(g, img.Opts)
			if e != nil {
				err = e
				return
			}
			if _, e := eng.Analyze(context.Background(), im); e != nil {
				err = e
			}
		})))
	}
	return time.Duration(median(ot)), time.Duration(median(st)), err
}
