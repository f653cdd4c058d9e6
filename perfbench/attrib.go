package main

import (
	"fmt"
	"time"

	"github.com/mia-rt/mia/internal/engine"
	"github.com/mia-rt/mia/internal/sched"
)

// tracedRun splits the window in two: an untraced half (the base for the
// tracing overhead and the runtime statistics) and a traced half whose
// spans are joined to the client ops, written to .bench_build, and split
// into per-layer time by replaying each sampled request's exact input
// through the layers' public functions.
func tracedRun(w workload, name string, seed int64, d time.Duration) (*result, error) {
	half := d / 2
	pu, err := onePass(w, newTracer(false), 1, 1, half, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	var probe *probeJob
	pt, err := onePass(w, tr, 1, 1, half, func(f *fleet) error {
		var err error
		probe, err = runProbeJob(w, f, tr, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	res, err := verify(w, append(append([]*op(nil), pu.run.ops...), pt.run.ops...), seed)
	if err != nil {
		return nil, err
	}
	if probe != nil && probe.err != nil {
		res.attempted++
		res.failed++
		res.errors = append(res.errors, "probe job: "+probe.err.Error())
	}
	tr.mu.Lock()
	httpOps := append([]*op(nil), tr.ops...)
	tr.mu.Unlock()
	if err := writeSpans(spanPath(name, seed), pt.spans, httpOps); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	ms, err := attribute(w, pt, httpOps, probe, seed)
	if err != nil {
		return nil, err
	}
	untraced := endToEnd(w.report(pu.run))["p50_ms"].Value
	traced := endToEnd(w.report(pt.run))["p50_ms"].Value
	ms = append(ms,
		metric{name: "trace.overhead_ms", value: traced - untraced, unit: "ms",
			note: fmt.Sprintf("primary p50 traced %.4g vs untraced %.4g", traced, untraced)},
		metric{name: "gc.cpu_frac", value: pu.rt.gcCPU / pu.rt.totalCPU, unit: "1", note: "untraced half"},
		metric{name: "alloc_mb_per_op", value: float64(pu.rt.allocBytes) / 1e6 / float64(len(pu.run.ops)), unit: "MB",
			note: fmt.Sprintf("untraced half, %d ops, whole process", len(pu.run.ops))},
	)
	res.metrics = ms
	res.json = map[string]jsonMetric{}
	for _, m := range ms {
		if perLayerJSON[m.name] {
			res.json[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	return res, nil
}

// perLayerJSON names the per-layer metrics of BENCHMARK.json: those every
// workload's traced run measures. server.wait_ms is printed but left out:
// pareto-search never has two requests on a shard at once, so it would
// read a constant zero there.
var perLayerJSON = map[string]bool{
	"router.self_ms": true, "router.replicate_ms": true, "router.retries": true, "router.failovers": true,
	"router.no_shard": true, "stream.relay_ms": true, "server.self_ms": true, "server.warm_hit_ratio": true,
	"server.shed": true, "stream.first_line_ms": true, "stream.bytes_per_item": true,
	"ingest.json_ms": true, "ingest.json_mb_per_s": true, "ingest.wire_ms": true, "compile_ms": true,
	"kernel.cold_ms": true, "kernel.cold_ns_per_task.384": true, "kernel.cold_ns_per_task.3840": true,
	"kernel.warm_ms": true, "kernel.warm_cold_ratio": true, "kernel.fingerprint_us": true,
	"kernel.scale_exponent": true, "kernel.par2_speedup": true,
	"search.gen_ms": true, "search.eval_order_ms": true, "search.eval_structural_ms": true,
	"search.allocs_per_eval": true, "job.overhead_ms": true,
	"trace.overhead_ms": true, "gc.cpu_frac": true, "alloc_mb_per_op": true,
}

// probeJob is one served search job on the paper instance, run after the
// traced traffic of the workloads that send none, so job.overhead_ms is
// measured on every workload.
type probeJob struct {
	ps  *paretoSearch
	op  *op
	err error
}

func runProbeJob(w workload, f *fleet, tr *tracer, seed int64) (*probeJob, error) {
	if _, ok := w.(*paretoSearch); ok {
		return nil, nil
	}
	ps := &paretoSearch{}
	if err := ps.generate(seed); err != nil {
		return nil, err
	}
	if err := ps.prepare(f, tr); err != nil {
		return nil, err
	}
	pj := &probeJob{ps: ps, op: ps.runJob(f, tr, paretoSeeds[0])}
	pj.err = ps.validate(pj.op)
	return pj, nil
}

// reqParts is one HTTP request's share of a client op's latency.
type reqParts struct {
	client, routerPre, relay, replicate, wait, serving time.Duration
}

// parts splits one joined request: client-side time outside the router
// span, router self time before and after the serving shard starts, the
// replica spans, and the serving shard span with the part of it that
// overlapped other requests on the same shard.
func parts(j joined, spans []span) (reqParts, bool) {
	if j.router == nil || len(j.shards) == 0 {
		return reqParts{}, false
	}
	var p reqParts
	p.client = j.op.latency() - j.router.dur()
	self, relay := routerSplit(j)
	p.routerPre, p.relay = self-relay, relay
	var ivs [][2]time.Duration
	for _, s := range j.shards[1:] {
		ivs = append(ivs, [2]time.Duration{s.Start, s.End})
	}
	p.replicate = unionWithin(j.router.Start, j.router.End, ivs)
	p.serving = j.shards[0].dur()
	p.wait = overlapWait(j.shards[0], spans)
	return p, true
}

// layers is the replayed layer time inside one client op's serving shard
// spans.
type layers struct {
	ingest, compile, kernel, search time.Duration
}

func (l layers) total() time.Duration { return l.ingest + l.compile + l.kernel + l.search }

// attribution accumulates per-op means of every row of the table.
type attribution struct {
	n                                        int
	e2e, client, routerPre, relay, replicate time.Duration
	wait, serverSelf                         time.Duration
	lay                                      layers
}

func (a *attribution) add(e2e time.Duration, ps []reqParts, l layers) {
	a.n++
	a.e2e += e2e
	var sum time.Duration
	var serving time.Duration
	for _, p := range ps {
		a.client += p.client
		a.routerPre += p.routerPre
		a.relay += p.relay
		a.replicate += p.replicate
		a.wait += p.wait
		serving += p.serving - p.wait
		sum += p.client + p.routerPre + p.relay + p.replicate + p.serving
	}
	a.lay.ingest += l.ingest
	a.lay.compile += l.compile
	a.lay.kernel += l.kernel
	a.lay.search += l.search
	a.serverSelf += serving - l.total()
	// Client time between the requests of a multi-request op (a job's
	// create and stream) is the client's too.
	a.client += e2e - sum
}

// rows is the per-layer table of one op kind: mean ms per op and share
// of the mean end-to-end latency. The rows sum to the end-to-end time by
// construction; server_self is the remainder of the serving spans, so a
// replay that runs slower or faster than the layer did in the fleet shows
// there instead of vanishing.
func (a *attribution) rows(kind string) []metric {
	mean := func(d time.Duration) float64 { return ms(d) / float64(a.n) }
	e2e := mean(a.e2e)
	row := func(name string, d time.Duration) metric {
		v := mean(d)
		return metric{name: "table." + kind + "." + name, value: v, unit: "ms",
			note: fmt.Sprintf("%.1f%% of %.4g ms end to end, %d ops", 100*v/e2e, e2e, a.n)}
	}
	return []metric{
		row("client_and_transport", a.client),
		row("router_place", a.routerPre),
		row("router_relay", a.relay),
		row("router_replicate", a.replicate),
		row("server_wait", a.wait),
		row("ingest", a.lay.ingest),
		row("compile", a.lay.compile),
		row("kernel", a.lay.kernel),
		row("search", a.lay.search),
		row("server_self", a.serverSelf),
	}
}

// table accumulates one attribution per op kind.
type table map[string]*attribution

func (t table) add(kind string, e2e time.Duration, ps []reqParts, l layers) {
	if t[kind] == nil {
		t[kind] = &attribution{}
	}
	t[kind].add(e2e, ps, l)
}

// attribute computes every per-layer metric of the traced half.
func attribute(w workload, p *pass, httpOps []*op, probe *probeJob, seed int64) ([]metric, error) {
	spans := p.spans
	joins := join(httpOps, spans)
	// Traffic is what the workload's clients sent in the window: not the
	// set-up registrations, job status reads or the probe job.
	inWindow := map[*op]bool{}
	for _, o := range p.run.ops {
		if o.job != nil {
			inWindow[o.job.create], inWindow[o.job.stream] = true, true
		} else {
			inWindow[o] = true
		}
	}
	byOp := map[*op]joined{}
	var traffic []joined
	for _, j := range joins {
		byOp[j.op] = j
		if inWindow[j.op] {
			traffic = append(traffic, j)
		}
	}
	var out []metric
	add := func(name string, v float64, unit, note string) {
		out = append(out, metric{name: name, value: v, unit: unit, note: note})
	}

	// Span-level means over every traced traffic request.
	var self, relay, wait time.Duration
	n := 0
	for _, j := range traffic {
		pp, ok := parts(j, spans)
		if !ok {
			continue
		}
		n++
		self += pp.routerPre + pp.relay
		relay += pp.relay
		wait += pp.wait
	}
	if n == 0 {
		return nil, fmt.Errorf("no traced request could be joined to its spans")
	}
	add("router.self_ms", ms(self)/float64(n), "ms", fmt.Sprintf("router span minus shard spans, %d requests", n))
	add("stream.relay_ms", ms(relay)/float64(n), "ms", "router self time after the serving shard starts")
	add("server.wait_ms", ms(wait)/float64(n), "ms", "serving span overlapping other requests on its shard")
	var rep time.Duration
	nrep := 0
	for _, j := range joins {
		if j.op.path == "/v1/analyze" && len(j.shards) > 1 {
			pp, _ := parts(j, spans)
			rep += pp.replicate
			nrep++
		}
	}
	if nrep == 0 {
		return nil, fmt.Errorf("no routed analyze was replicated")
	}
	add("router.replicate_ms", ms(rep)/float64(nrep), "ms", fmt.Sprintf("replica span under %d routed analyzes", nrep))
	c := p.counters
	add("router.retries", float64(c.retries), "count", "router /metrics delta")
	add("router.failovers", float64(c.failovers), "count", "router /metrics delta")
	add("router.no_shard", float64(c.noShard), "count", "router /metrics delta")
	add("server.shed", float64(c.shed), "count", "shard /metrics delta")
	if c.hits+c.misses > 0 {
		add("server.warm_hit_ratio", float64(c.hits)/float64(c.hits+c.misses), "1",
			fmt.Sprintf("%d hits of %d warm-cache lookups", c.hits, c.hits+c.misses))
	} else {
		add("server.warm_hit_ratio", 0, "1", "no warm-cache lookups")
	}
	var first time.Duration
	bytes, items := 0, 0
	for _, o := range p.run.ops {
		first += o.first - o.start
		bytes += o.bytes
		items += o.items
	}
	add("stream.first_line_ms", ms(first)/float64(len(p.run.ops)), "ms", "client: send to first reply line")
	add("stream.bytes_per_item", float64(bytes)/float64(max(items, 1)), "B", fmt.Sprintf("%d bytes, %d items", bytes, items))

	// Layer replays: workload-specific inputs, shared probes.
	att := table{}
	var lm []metric
	var err error
	switch w := w.(type) {
	case *coldIngest:
		lm, err = replayColdIngest(w, p, byOp, spans, att, seed)
	case *whatIfMixed:
		lm, err = replayWhatIf(w, p, byOp, spans, att, seed)
	case *paretoSearch:
		lm, err = replayPareto(w, p, byOp, spans, att)
	}
	if err != nil {
		return nil, err
	}
	out = append(out, lm...)
	// server.self_ms is the serving span's remainder once wait and the
	// replayed layers are taken out: body read, admission, fingerprint,
	// reply encode — and any replay error, reported rather than hidden.
	var selfSum time.Duration
	nself := 0
	for _, kind := range []string{"analyze", "unary", "batch", "job"} {
		if a := att[kind]; a != nil {
			selfSum += a.serverSelf
			nself += a.n
			out = append(out, a.rows(kind)...)
		}
	}
	if nself == 0 {
		return nil, fmt.Errorf("no sampled op could be attributed")
	}
	add("server.self_ms", ms(selfSum)/float64(nself), "ms",
		fmt.Sprintf("serving span minus wait and replayed layers, %d sampled ops", nself))
	if probe != nil {
		res, err := probe.ps.searchOracle(paretoSeeds[0])
		if err != nil {
			return nil, err
		}
		if probe.err == nil && probe.op.job.front != res.FrontFingerprint() {
			probe.err = fmt.Errorf("probe job front differs from the in-process search")
		}
		wall := probe.ps.wall[paretoSeeds[0]]
		add("job.overhead_ms", ms(probe.op.latency()-wall), "ms", "one probe job after the traffic")
		sm, err := searchMetrics(probe.ps, paretoSeeds[:1])
		if err != nil {
			return nil, err
		}
		out = append(out, sm...)
	}
	sp, err := runScaleProbe()
	if err != nil {
		return nil, err
	}
	add("kernel.cold_ns_per_task.384", sp.ns384, "ns", "LS64 6x64, median of 15")
	add("kernel.cold_ns_per_task.3840", sp.ns3840, "ns", "LS64 60x64, median of 5")
	add("kernel.scale_exponent", sp.exponent, "1", "log-log slope 384 -> 3840 (paper guard: near 1.06)")
	add("kernel.par2_speedup", sp.par2Speedup, "x", "3840 tasks, Parallelism 1 vs 2")
	return out, nil
}

// searchMetrics reports the in-process search layer from the oracle
// searches of the given seeds.
func searchMetrics(ps *paretoSearch, seeds []int64) ([]metric, error) {
	var wall time.Duration
	var allocs uint64
	evals, gens := 0, 0
	for _, s := range seeds {
		wall += ps.wall[s]
		allocs += ps.allocs[s]
		evals += ps.oracle[s].Evaluations
		gens += ps.oracle[s].Generations
	}
	order, structural, err := searchProbe(ps.img, 1)
	if err != nil {
		return nil, err
	}
	return []metric{
		{name: "search.gen_ms", value: ms(wall) / float64(gens), unit: "ms", note: fmt.Sprintf("in-process pareto.Search, %d searches", len(seeds))},
		{name: "search.allocs_per_eval", value: float64(allocs) / float64(evals), unit: "count", note: fmt.Sprintf("%d evaluations", evals)},
		{name: "search.eval_order_ms", value: ms(order), unit: "ms", note: "SetOrder+FingerprintOrders+Warm.Analyze, median of 16"},
		{name: "search.eval_structural_ms", value: ms(structural), unit: "ms", note: "NewGraph+CompileDemands+Compile+Analyze, median of 16"},
	}, nil
}

// ingestMetrics reports the ingest, compile and cold-kernel probes.
func ingestMetrics(ts []ingestTimes) []metric {
	var j, wr, c, k time.Duration
	bytes := 0
	for _, t := range ts {
		j += t.json
		wr += t.wire
		c += t.compile
		k += t.cold
		bytes += t.jsonBytes
	}
	n := float64(len(ts))
	note := fmt.Sprintf("%d graphs", len(ts))
	return []metric{
		{name: "ingest.json_ms", value: ms(j) / n, unit: "ms", note: "model.ReadJSON, " + note},
		{name: "ingest.json_mb_per_s", value: float64(bytes) / 1e6 / j.Seconds(), unit: "MB/s", note: note},
		{name: "ingest.wire_ms", value: ms(wr) / n, unit: "ms", note: "engine.CompileFromWire, " + note},
		{name: "compile_ms", value: ms(c) / n, unit: "ms", note: "engine.Compile, " + note},
		{name: "kernel.cold_ms", value: ms(k) / n, unit: "ms", note: "Engine.Analyze, " + note},
	}
}

// warmMetrics reports warm what-if evaluation against the cold base.
func warmMetrics(fp, kernel time.Duration, n int, cold time.Duration) []metric {
	warm := ms(kernel) / float64(n)
	return []metric{
		{name: "kernel.warm_ms", value: warm, unit: "ms", note: fmt.Sprintf("Warm.Reschedule, %d scenarios", n)},
		{name: "kernel.fingerprint_us", value: float64(fp) / 1e3 / float64(n), unit: "us", note: "Image.FingerprintOrders"},
		{name: "kernel.warm_cold_ratio", value: warm / ms(cold), unit: "1", note: fmt.Sprintf("base kernel.cold_ms %.4g", ms(cold))},
	}
}

// scenarioProbe replays n generated scenarios on img.
func scenarioProbe(img *engine.Image, n int, seed int64) (fp, kernel time.Duration, err error) {
	wr, err := newWarmReplay(img)
	if err != nil {
		return 0, 0, err
	}
	defer wr.close()
	sg := newScenarioGen(img, seed)
	for i := 0; i < n; i++ {
		f, k, _, err := wr.eval(sg.scenario())
		if err != nil {
			return 0, 0, err
		}
		fp += f
		kernel += k
	}
	return fp, kernel, nil
}

func replayColdIngest(w *coldIngest, p *pass, byOp map[*op]joined, spans []span, att table, seed int64) ([]metric, error) {
	var ts []ingestTimes
	var img *engine.Image
	for _, o := range sampleOps(okOps(opsOf(p.run.ops, "analyze")), 24, seed) {
		body := w.body(o.ref)
		g, err := readGraph(body)
		if err != nil {
			return nil, err
		}
		t, err := probeIngest(body, g)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
		if img == nil {
			if img, err = engine.Compile(g, sched.Options{}); err != nil {
				return nil, err
			}
		}
		if pp, ok := parts(byOp[o], spans); ok {
			att.add(o.kind, o.latency(), []reqParts{pp}, layers{ingest: t.json, compile: t.compile, kernel: t.cold})
		}
	}
	if len(ts) == 0 {
		return nil, fmt.Errorf("cold-ingest: no successful analyze to replay")
	}
	out := ingestMetrics(ts)
	fp, k, err := scenarioProbe(img, 16, seed)
	if err != nil {
		return nil, err
	}
	var cold time.Duration
	for _, t := range ts {
		cold += t.cold
	}
	return append(out, warmMetrics(fp, k, 16, cold/time.Duration(len(ts)))...), nil
}

func replayWhatIf(w *whatIfMixed, p *pass, byOp map[*op]joined, spans []span, att table, seed int64) ([]metric, error) {
	un := sampleOps(okOps(opsOf(p.run.ops, "unary")), 24, seed)
	ba := sampleOps(okOps(opsOf(p.run.ops, "batch")), 6, seed+1)
	byGraph := map[int][]*op{}
	graphOf := func(o *op) int {
		if o.kind == "unary" {
			return w.unary[o.ref].graph
		}
		return w.batches[o.ref].graph
	}
	for _, o := range append(append([]*op(nil), un...), ba...) {
		byGraph[graphOf(o)] = append(byGraph[graphOf(o)], o)
	}
	// Batches that started on a cold warm-LRU entry: every whatIf call
	// counts one hit or miss, the unary ones say which in X-Mia-Cache.
	unaryMiss := 0
	for _, o := range opsOf(p.run.ops, "unary") {
		if o.cache == "miss" {
			unaryMiss++
		}
	}
	nb := len(opsOf(p.run.ops, "batch"))
	batchMissRate := 0.0
	if nb > 0 {
		batchMissRate = float64(int(p.counters.misses)-unaryMiss) / float64(nb)
	}
	var fpSum, kSum, coldSum, wireSum time.Duration
	evals, graphs := 0, 0
	for gi := 0; gi < len(w.graphs); gi++ {
		ops := byGraph[gi]
		if len(ops) == 0 {
			continue
		}
		var img *engine.Image
		var err error
		wireSum += timeIt(func() { img, err = engine.CompileFromWire(w.blobs[gi], sched.Options{}) })
		if err != nil {
			return nil, err
		}
		wr, err := newWarmReplay(img)
		if err != nil {
			return nil, err
		}
		graphs++
		coldSum += wr.cold
		for _, o := range ops {
			var kernel time.Duration
			if o.kind == "unary" {
				fp, k, _, err := wr.eval(w.unary[o.ref].items[0])
				if err != nil {
					wr.close()
					return nil, err
				}
				fpSum += fp
				kSum += k
				evals++
				kernel = fp + k
				if o.cache == "miss" {
					kernel += wr.cold
				}
			} else {
				seen := map[string]bool{}
				for _, it := range w.batches[o.ref].items {
					fp, k, key, err := wr.eval(it)
					if err != nil {
						wr.close()
						return nil, err
					}
					kernel += fp
					if !seen[key] { // the batch memo answers repeats
						seen[key] = true
						kernel += k
						fpSum += fp
						kSum += k
						evals++
					}
				}
				kernel += time.Duration(batchMissRate * float64(wr.cold))
			}
			if pp, ok := parts(byOp[o], spans); ok {
				att.add(o.kind, o.latency(), []reqParts{pp}, layers{kernel: kernel})
			}
		}
		wr.close()
	}
	if graphs == 0 {
		return nil, fmt.Errorf("whatif-mixed: no successful request to replay")
	}
	var ts []ingestTimes
	for gi := 0; gi < 2; gi++ {
		t, err := probeIngest(nil, w.graphs[gi])
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	out := ingestMetrics(ts)
	for i := range out {
		if out[i].name == "ingest.wire_ms" {
			out[i].value, out[i].note = ms(wireSum)/float64(graphs), fmt.Sprintf("engine.CompileFromWire on %d registered blobs", graphs)
		}
		if out[i].name == "kernel.cold_ms" {
			out[i].value, out[i].note = ms(coldSum)/float64(graphs), fmt.Sprintf("Warm.Analyze baseline of %d replayed graphs", graphs)
		}
	}
	return append(out, warmMetrics(fpSum, kSum, evals, coldSum/time.Duration(graphs))...), nil
}

func replayPareto(w *paretoSearch, p *pass, byOp map[*op]joined, spans []span, att table) ([]metric, error) {
	var overhead time.Duration
	jobs := 0
	seen := map[int64]bool{}
	var seeds []int64
	for _, o := range okOps(opsOf(p.run.ops, "job")) {
		if _, err := w.searchOracle(o.job.seed); err != nil {
			return nil, err
		}
		if !seen[o.job.seed] {
			seen[o.job.seed] = true
			seeds = append(seeds, o.job.seed)
		}
		wall := w.wall[o.job.seed]
		overhead += o.latency() - wall
		jobs++
		var ps []reqParts
		for _, sub := range []*op{o.job.create, o.job.stream} {
			if pp, ok := parts(byOp[sub], spans); ok {
				ps = append(ps, pp)
			}
		}
		if len(ps) == 2 {
			att.add(o.kind, o.latency(), ps, layers{search: wall})
		}
	}
	if jobs == 0 {
		return nil, fmt.Errorf("pareto-search: no successful job to replay")
	}
	out := []metric{{name: "job.overhead_ms", value: ms(overhead) / float64(jobs), unit: "ms",
		note: fmt.Sprintf("served job minus in-process search, %d jobs", jobs)}}
	sm, err := searchMetrics(w, seeds)
	if err != nil {
		return nil, err
	}
	out = append(out, sm...)
	g, err := readGraph(w.body)
	if err != nil {
		return nil, err
	}
	t, err := probeIngest(w.body, g)
	if err != nil {
		return nil, err
	}
	out = append(out, ingestMetrics([]ingestTimes{t})...)
	fp, k, err := scenarioProbe(w.img, 16, 1)
	if err != nil {
		return nil, err
	}
	return append(out, warmMetrics(fp, k, 16, t.cold)...), nil
}
