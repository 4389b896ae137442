package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"hetopt/internal/core"
	"hetopt/internal/scenario"
	"hetopt/internal/serve"
)

// The traced run times calls into each layer's public functions from
// the benchmark's own files: a handler wrapper around each node's
// ServeHTTP, direct core.Run / graph.Tune runs with a timing evaluator
// interposed as Instance.MeasureCache, core.NewPredictor, core.Train,
// the service's request canonicalization, and json.Marshal of the
// terminal status. Nothing inside the program is instrumented.

// probe is one sequential request of a class, timed at every layer.
type probe struct {
	rttNs, handlerNs, ownerNs int64 // ownerNs: forwarded hits only
	normNs, renderNs          int64
	run                       runTrace
}

// classProbes is every probe of one request class.
type classProbes struct {
	name   string
	cold   bool
	dag    bool
	probes []probe
}

// traceWindow is the traced run's evidence.
type traceWindow struct {
	w           *window
	delta       metricsDelta
	gcPauseNs   uint64
	allocBytes  uint64
	classes     []*classProbes
	predictNs   float64 // per Predictor.Evaluate call on a fresh predictor
	normUs      float64 // Normalize + AppendKey on the workload's bodies
	probes      int
	probeFailed int
}

const (
	hitProbes  = 200 // warm and forwarded hit probes
	coldProbes = 10  // probes per cold class
	probeSlot  = maxClients
)

// tracedWindow runs the workload's traffic again with the handler
// wrapper timing every request, then probes each request class alone.
func tracedWindow(nodes []*node, tr *traffic, cfg config, ck *checker) (*traceWindow, error) {
	c := newClient()
	defer closeClient(c)
	before, err := nodeMetrics(c, nodes)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w := drive(nodes, tr.stream, cfg.clients, time.Duration(cfg.seconds*float64(time.Second)), ck.expWarm, true)
	runtime.ReadMemStats(&m1)
	after, err := nodeMetrics(c, nodes)
	if err != nil {
		return nil, err
	}
	tw := &traceWindow{
		w:          w,
		delta:      deltaOf(before, after),
		gcPauseNs:  m1.PauseTotalNs - m0.PauseTotalNs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
	}
	tw.normUs = normalizeUs(w)
	if err := tw.probeHits(ck); err != nil {
		return nil, err
	}
	if err := tw.probeCold(nodes, ck, cfg.seed); err != nil {
		return nil, err
	}
	return tw, nil
}

// normalizeUs is the median time of TuneRequest.Normalize plus
// AppendKey over the single-request bodies the window sent.
func normalizeUs(w *window) float64 {
	var per []float64
	for it := range w.items {
		if it.batch || len(per) == 512 {
			continue
		}
		var raw serve.TuneRequest
		if json.Unmarshal(it.body, &raw) != nil {
			continue
		}
		per = append(per, float64(timeNormalize(raw)))
	}
	return median(per) / 1e3
}

// timeNormalize is the mean time of one Normalize + AppendKey of raw.
func timeNormalize(raw serve.TuneRequest) int64 {
	const reps = 64
	buf := make([]byte, 0, 256)
	start := time.Now()
	for i := 0; i < reps; i++ {
		canon, _ := raw.Normalize()
		buf = canon.AppendKey(buf[:0])
	}
	return int64(time.Since(start)) / reps
}

// probeHits times warm and forwarded hits on a two-node probe cluster
// without replication, so a non-owner holds no copy and must forward.
func (tw *traceWindow) probeHits(ck *checker) error {
	nodes, err := startNodes(2, serve.Options{}, false)
	if err != nil {
		return err
	}
	defer stopNodes(nodes)
	for _, nd := range nodes {
		nd.th.tracing.Store(true)
	}
	var raw serve.TuneRequest
	var m member
	for seed := int64(1); ; seed++ {
		raw = serve.TuneRequest{Workload: "spmv:medium", Platform: "gpu-like", Method: "sam", Iterations: 500, Seed: seed}
		canon, err := raw.Normalize()
		if err != nil {
			return err
		}
		if m = (member{req: canon, key: canon.Key()}); owner(nodes, m.key) == 0 {
			break
		}
	}
	if err := ck.expectMembers([]member{m}); err != nil {
		return err
	}
	body, _ := json.Marshal(raw)
	c := newClient()
	defer closeClient(c)
	if _, _, err := post(c, nodes[0].url+"/v1/jobs?wait=1", body, nil); err != nil {
		return err
	}
	norm := timeNormalize(raw)
	warm := &classProbes{name: "warm-hit"}
	fwd := &classProbes{name: "forwarded-hit"}
	for i := 0; i < 2*hitProbes; i++ {
		cp, entry := warm, nodes[0]
		if i%2 == 1 {
			cp, entry = fwd, nodes[1]
		}
		p, resp, err := timedPost(c, entry, body, int64(i+1))
		if err != nil {
			return err
		}
		tw.probes++
		if string(resp) != string(ck.exp[m.key].warm) {
			tw.probeFailed++
			ck.problem("%s probe: answer is not the warm body", cp.name)
		}
		p.normNs = norm
		if cp == fwd {
			p.ownerNs = nodes[0].th.lastForwarded.Load()
		}
		cp.probes = append(cp.probes, p)
	}
	tw.classes = append(tw.classes, warm, fwd)
	return nil
}

// timedPost sends body to a node with the probe's tracing tags and
// returns the round trip and the node's handler time.
func timedPost(c *http.Client, nd *node, body []byte, seq int64) (probe, []byte, error) {
	hdr := http.Header{clientHeader: {strconv.Itoa(probeSlot)}, seqHeader: {strconv.FormatInt(seq, 10)}}
	start := time.Now()
	code, resp, err := post(c, nd.url+"/v1/jobs?wait=1", body, hdr)
	rtt := int64(time.Since(start))
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("probe answered %d: %s", code, resp)
	}
	if err != nil {
		return probe{}, nil, err
	}
	h := nd.th.handlerTime(probeSlot, seq)
	if h < 0 {
		return probe{}, nil, fmt.Errorf("no handler time for probe %d", seq)
	}
	return probe{rttNs: rtt, handlerNs: h}, resp, nil
}

// probeCold times coldProbes fresh requests of every cold class on
// spmv:medium on the gpu-like platform (the pair every workload
// trains), entering at node 0 with keys node 0 owns. Each is computed
// directly first, then sent to the service.
func (tw *traceWindow) probeCold(nodes []*node, ck *checker, seed int64) error {
	for _, nd := range nodes {
		nd.th.tracing.Store(true)
		defer nd.th.tracing.Store(false)
	}
	c := newClient()
	defer closeClient(c)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	base, err := presetSize("spmv:medium")
	if err != nil {
		return err
	}
	seq := int64(1 << 40)
	for _, cls := range coldClasses {
		cp := &classProbes{name: cls.name, cold: true, dag: cls.dag}
		for i := 0; i < coldProbes; i++ {
			raw := cls.base(target{workload: "spmv:medium", platform: probePair.platform})
			var m member
			for {
				// Negative seeds and a fresh size keep probes apart from
				// every key and memo the traffic used.
				raw.Seed = -1_000_000 - rng.Int63n(1<<30)
				if !cls.dag {
					raw.SizeMB = math.Round(base*(0.5+rng.Float64())*1000) / 1000
				}
				canon, err := raw.Normalize()
				if err != nil {
					return err
				}
				if m = (member{req: canon, key: canon.Key()}); owner(nodes, m.key) == 0 && ck.exp[m.key] == nil {
					break
				}
			}
			if err := ck.expectMembers([]member{m}); err != nil {
				return err
			}
			e := ck.exp[m.key]
			body, _ := json.Marshal(raw)
			seq++
			p, resp, err := timedPost(c, nodes[0], body, seq)
			if err != nil {
				return err
			}
			tw.probes++
			var st statusWire
			if json.Unmarshal(resp, &st) != nil || st.State != serve.JobDone || st.Cached || string(st.Result) != string(e.result) {
				tw.probeFailed++
				ck.problem("%s probe %s: answer differs from the direct computation", cls.name, m.key)
			}
			p.run = e.trace
			p.normNs = timeNormalize(raw)
			p.renderNs = timeRender(m, st)
			cp.probes = append(cp.probes, p)
			if cls.ml && tw.predictNs == 0 {
				if tw.predictNs, err = ck.env.predictNs(m.req); err != nil {
					return err
				}
			}
		}
		tw.classes = append(tw.classes, cp)
	}
	return nil
}

// timeRender is the mean time of marshalling the terminal status of a
// computed answer, as the service renders it.
func timeRender(m member, st statusWire) int64 {
	var res serve.TuneResult
	if json.Unmarshal(st.Result, &res) != nil {
		return 0
	}
	js := serve.JobStatus{ID: st.ID, State: serve.JobDone, Request: m.req, Key: m.key, Result: &res}
	const reps = 16
	start := time.Now()
	for i := 0; i < reps; i++ {
		_, _ = json.Marshal(js)
	}
	return int64(time.Since(start)) / reps
}

// predictNs is the mean time of Predictor.Evaluate on a fresh predictor
// for the request's workload, over random configurations.
func (e *refEnv) predictNs(req canonical) (float64, error) {
	fam, preset, err := scenario.Resolve(req.Workload)
	if err != nil {
		return 0, err
	}
	w, err := fam.Workload(preset.Name)
	if err != nil {
		return 0, err
	}
	w = w.Scaled(req.SizeMB)
	p, err := e.platform(req.Platform)
	if err != nil {
		return 0, err
	}
	pred, err := core.NewPredictor(e.models[modelPair{platform: req.Platform, family: fam.Name}], w, p.platform.Model())
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(1))
	const n = 512
	var total time.Duration
	for i := 0; i < n; i++ {
		cfg, err := p.schema.Config(p.schema.Space().Random(rng))
		if err != nil {
			return 0, err
		}
		start := time.Now()
		_, err = pred.Evaluate(cfg)
		total += time.Since(start)
		if err != nil {
			return 0, err
		}
	}
	return float64(total) / n, nil
}

// Layer-table rows. Every class fills the rows its path has; residual
// is the class's median round trip minus the sum of the other rows'
// medians, so the rows add up to the median round trip exactly.
var layerRows = []string{"http", "forward", "serve", "normalize", "predictor", "search", "measure", "render", "residual"}

// rows splits one probe into the layer rows (residual left zero).
func (cp *classProbes) rows(p probe) []float64 {
	r := make([]float64, len(layerRows))
	entry := p.handlerNs
	r[0] = float64(p.rttNs - entry)
	r[3] = float64(p.normNs)
	switch {
	case cp.name == "forwarded-hit":
		r[1] = float64(entry - p.ownerNs)
		r[2] = float64(p.ownerNs - p.normNs)
	case cp.cold:
		r[4] = float64(p.run.predictNs)
		r[5] = float64(p.run.runNs - p.run.measureNs)
		r[6] = float64(p.run.measureNs)
		r[7] = float64(p.renderNs)
		r[2] = float64(entry-p.normNs-p.renderNs-p.run.runNs) - r[4]
	default:
		r[2] = float64(entry - p.normNs)
	}
	return r
}

// layerTable returns each row's median over samples and the median
// total; the residual row closes the sum onto the total.
func layerTable(samples [][]float64, totals []float64) ([]float64, float64) {
	out := make([]float64, len(layerRows))
	sum := 0.0
	for r := range layerRows[:len(layerRows)-1] {
		col := make([]float64, len(samples))
		for i, s := range samples {
			col[i] = s[r]
		}
		out[r] = median(col)
		sum += out[r]
	}
	total := median(totals)
	out[len(out)-1] = total - sum
	return out, total
}

// table computes the class's layer table in nanoseconds.
func (cp *classProbes) table() ([]float64, float64) {
	samples := make([][]float64, len(cp.probes))
	totals := make([]float64, len(cp.probes))
	for i, p := range cp.probes {
		samples[i] = cp.rows(p)
		totals[i] = float64(p.rttNs)
	}
	return layerTable(samples, totals)
}

func (cp *classProbes) medianOf(f func(p probe) float64) float64 {
	xs := make([]float64, len(cp.probes))
	for i, p := range cp.probes {
		xs[i] = f(p)
	}
	return median(xs)
}

func (tw *traceWindow) class(name string) *classProbes {
	for _, cp := range tw.classes {
		if cp.name == name {
			return cp
		}
	}
	return nil
}

// report prints the per-layer metrics and the per-class layer table.
// untraced is the run's untraced window, the base of trace.overhead_pct.
func (tw *traceWindow) report(rep *report, ck *checker, untraced *window) {
	w := tw.w
	n := float64(w.attempted)
	warm := tw.class("warm-hit")
	fwd := tw.class("forwarded-hit")
	rep.add("http.overhead_us", medianNs(w.overNs)/1e3, "us")
	handlerWarm := medianNs(w.warmNs)
	if len(w.warmNs) == 0 {
		handlerWarm = warm.medianOf(func(p probe) float64 { return float64(p.handlerNs) })
	}
	rep.add("serve.handler_warm_us", handlerWarm/1e3, "us")
	rep.add("serve.normalize_us", tw.normUs, "us")

	var overhead, render, measureNs, measureCalls, predictorNew []float64
	for _, cp := range tw.classes {
		if !cp.cold {
			continue
		}
		for _, p := range cp.probes {
			overhead = append(overhead, float64(p.handlerNs-p.run.runNs-p.run.predictNs))
			render = append(render, float64(p.renderNs))
			if !cp.dag {
				measureNs = append(measureNs, float64(p.run.measureNs))
				measureCalls = append(measureCalls, float64(p.run.measureCalls))
			}
			if p.run.predictNs > 0 {
				predictorNew = append(predictorNew, float64(p.run.predictNs))
			}
		}
	}
	rep.add("serve.cold_overhead_ms", median(overhead)/1e6, "ms")
	rep.add("serve.render_us", median(render)/1e3, "us")
	rep.add("serve.store_hit_ratio", ratio(tw.delta.hits, tw.delta.lookups), "ratio")
	rep.add("serve.store_evictions_per_1k", float64(tw.delta.evictions)/n*1000, "count")
	rep.add("cluster.forwarded_share", float64(tw.delta.forwarded)/n, "ratio")
	rep.add("cluster.forward_hop_us", fwd.medianOf(func(p probe) float64 { return float64(p.handlerNs - p.ownerNs) })/1e3, "us")
	rep.add("cluster.replication_sent", float64(tw.delta.replSent), "count")
	rep.add("cluster.replication_dropped", float64(tw.delta.replDropped), "count")
	for _, cls := range coldClasses {
		if cls.dag {
			continue
		}
		cp := tw.class(cls.name)
		rep.add("core.run_ms."+cls.name, cp.medianOf(func(p probe) float64 { return float64(p.run.runNs) })/1e6, "ms")
		rep.add("search.self_ms."+cls.name, cp.medianOf(func(p probe) float64 { return float64(p.run.runNs - p.run.measureNs) })/1e6, "ms")
		rep.add("offload.measure_calls."+cls.name, cp.medianOf(func(p probe) float64 { return float64(p.run.measureCalls) }), "count")
	}
	rep.add("offload.measure_us", sum(measureNs)/math.Max(sum(measureCalls), 1)/1e3, "us")
	rep.add("search.memo_hit_ratio", ck.memoHitRatio(), "ratio")
	for _, p := range allPairs {
		rep.add("core.train_s."+p.String(), ck.env.trainS[p], "s")
	}
	rep.add("core.predictor_new_ms", median(predictorNew)/1e6, "ms")
	rep.add("ml.predict_ns", tw.predictNs, "ns")
	ex := tw.class("exact")
	rep.add("exact.explored", ex.medianOf(func(p probe) float64 { return float64(p.run.cert.Explored) }), "count")
	rep.add("exact.pruned", ex.medianOf(func(p probe) float64 { return float64(p.run.cert.Pruned) }), "count")
	rep.add("exact.explored_share", ex.medianOf(func(p probe) float64 { return float64(p.run.cert.Explored) / float64(p.run.space) }), "ratio")
	dag := tw.class("dag")
	rep.add("graph.tune_ms", dag.medianOf(func(p probe) float64 { return float64(p.run.runNs) })/1e6, "ms")
	rep.add("graph.evaluations", dag.medianOf(func(p probe) float64 { return float64(p.run.evaluations) }), "count")
	rep.add("gc.pause_ms", float64(tw.gcPauseNs)/1e6, "ms")
	rep.add("gc.alloc_bytes_per_req", float64(tw.allocBytes)/n, "B")
	base := float64(untraced.attempted) / untraced.seconds
	rep.add("trace.overhead_pct", (base-n/w.seconds)/base*100, "%")

	fmt.Fprintf(rep.out, "layer table: medians of sequential probes in microseconds; residual = median round trip - sum of the other rows\n")
	fmt.Fprintf(rep.out, "%-14s %4s", "class", "n")
	for _, r := range layerRows {
		fmt.Fprintf(rep.out, " %10s", r)
	}
	fmt.Fprintf(rep.out, " %10s\n", "total")
	for _, cp := range tw.classes {
		rows, total := cp.table()
		fmt.Fprintf(rep.out, "%-14s %4d", cp.name, len(cp.probes))
		for _, v := range rows {
			fmt.Fprintf(rep.out, " %10.1f", v/1e3)
		}
		fmt.Fprintf(rep.out, " %10.1f\n", total/1e3)
	}
	fmt.Fprintf(rep.out, "traced window: %d requests in %.3f s (untraced %.1f rps, traced %.1f rps)\n", w.attempted, w.seconds, base, n/w.seconds)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
