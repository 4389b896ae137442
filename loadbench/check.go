package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hetopt/internal/core"
	"hetopt/internal/graph"
	"hetopt/internal/offload"
	"hetopt/internal/scenario"
	"hetopt/internal/search"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// refEnv computes answers directly through the layers under the
// service — core.Run and graph.Tune — with reference models trained by
// core.Train, so every answer the service gives can be checked against
// an independent computation of the same canonical request.
type refEnv struct {
	mu        sync.Mutex
	platforms map[string]*refPlatform
	models    map[modelPair]*core.Models
	trainS    map[modelPair]float64
}

type refPlatform struct {
	spec     scenario.PlatformSpec
	platform *offload.Platform
	schema   *space.Schema
}

func newRefEnv() *refEnv {
	return &refEnv{platforms: map[string]*refPlatform{}, models: map[modelPair]*core.Models{}, trainS: map[modelPair]float64{}}
}

func (e *refEnv) platform(name string) (*refPlatform, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.platforms[name]; ok {
		return p, nil
	}
	spec, err := scenario.PlatformByName(name)
	if err != nil {
		return nil, err
	}
	schema, err := spec.Schema()
	if err != nil {
		return nil, err
	}
	p := &refPlatform{spec: spec, platform: spec.Platform(), schema: schema}
	e.platforms[name] = p
	return p, nil
}

// train fits the reference models of a pair with the registry's plan —
// the inputs the service trains the same pair from — and records the
// time core.Train took.
func (e *refEnv) train(pair modelPair) error {
	p, err := e.platform(pair.platform)
	if err != nil {
		return err
	}
	fam, err := scenario.FamilyByName(pair.family)
	if err != nil {
		return err
	}
	start := time.Now()
	m, err := core.Train(p.platform, p.spec.TrainingPlan(fam), core.TrainOptions{})
	if err != nil {
		return fmt.Errorf("training %v: %w", pair, err)
	}
	e.mu.Lock()
	e.models[pair] = m
	e.trainS[pair] = time.Since(start).Seconds()
	e.mu.Unlock()
	return nil
}

// runTrace is what one direct computation cost, layer by layer.
type runTrace struct {
	predictNs    int64 // core.NewPredictor (ML methods)
	runNs        int64 // core.Run, or graph.Tune for a DAG
	measureNs    int64 // inside Measurer.Evaluate, part of runNs
	measureCalls int64
	configs      []uint64 // search.HashConfig of every configuration measured
	cert         *strategy.Certificate
	space        int // configuration-space size
	evaluations  int
}

// timedMeasure is the core.Evaluator the direct runs interpose as
// Instance.MeasureCache: a per-run single-flight memo, like the
// service's per-job memo, in front of a measurer whose calls it times.
type timedMeasure struct {
	memo  *search.Memo[space.Config, offload.Measurement]
	meas  *core.Measurer
	mu    sync.Mutex
	calls int64
	nanos int64
	cfgs  []uint64
}

func (t *timedMeasure) Evaluate(cfg space.Config) (offload.Measurement, error) {
	if v, ok, err := t.memo.Get(cfg); ok {
		return v, err
	}
	return t.memo.Do(cfg, func() (offload.Measurement, error) {
		start := time.Now()
		m, err := t.meas.Evaluate(cfg)
		d := time.Since(start)
		t.mu.Lock()
		t.calls++
		t.nanos += int64(d)
		t.cfgs = append(t.cfgs, search.HashConfig(cfg))
		t.mu.Unlock()
		return m, err
	})
}

// compute answers one canonical request directly and renders the
// result into the service's wire form.
func (e *refEnv) compute(req canonical) (resultWire, runTrace, error) {
	var tr runTrace
	fam, preset, err := scenario.Resolve(req.Workload)
	if err != nil {
		return resultWire{}, tr, err
	}
	p, err := e.platform(req.Platform)
	if err != nil {
		return resultWire{}, tr, err
	}
	method, err := core.ParseMethod(req.Method)
	if err != nil {
		return resultWire{}, tr, err
	}
	strat, err := core.ParseStrategy(req.Strategy)
	if err != nil {
		return resultWire{}, tr, err
	}
	if ex, ok := strat.(strategy.Exact); ok {
		ex.Prove, ex.PoolSize, ex.PoolGap = req.Prove, req.PoolSize, req.PoolGap
		strat = ex
	}
	if fam.IsDAG() {
		g, err := fam.Graph(preset.Name)
		if err != nil {
			return resultWire{}, tr, err
		}
		sim, err := p.spec.DAGSim(g)
		if err != nil {
			return resultWire{}, tr, err
		}
		if strat == nil {
			if method.UsesAnnealing() {
				strat = strategy.DefaultAnneal()
			} else {
				strat = strategy.Exhaustive{}
			}
		}
		start := time.Now()
		res, err := graph.Tune(sim, strat, strategy.Options{Budget: req.Iterations, Seed: req.Seed, Restarts: req.Restarts})
		tr.runNs = int64(time.Since(start))
		if err != nil {
			return resultWire{}, tr, err
		}
		tr.cert, tr.space, tr.evaluations = res.Cert, 1<<sim.Nodes(), res.Evaluations
		return dagResultWire(method, sim, res), tr, nil
	}

	w, err := fam.Workload(preset.Name)
	if err != nil {
		return resultWire{}, tr, err
	}
	if req.SizeMB > 0 {
		w = w.Scaled(req.SizeMB)
	}
	meas := core.NewMeasurer(p.platform, w)
	tm := &timedMeasure{memo: search.NewShardedMemo[space.Config, offload.Measurement](16, search.HashConfig), meas: meas}
	inst := &core.Instance{Schema: p.schema, Measurer: meas, MeasureCache: tm}
	if method.UsesML() {
		e.mu.Lock()
		models := e.models[modelPair{platform: req.Platform, family: fam.Name}]
		e.mu.Unlock()
		if models == nil {
			return resultWire{}, tr, fmt.Errorf("no reference models for %s.%s", req.Platform, fam.Name)
		}
		start := time.Now()
		pred, err := core.NewPredictor(models, w, p.platform.Model())
		tr.predictNs = int64(time.Since(start))
		if err != nil {
			return resultWire{}, tr, err
		}
		inst.Predictor = pred
	}
	obj, err := core.ParseObjective(req.Objective, req.Alpha)
	if err != nil {
		return resultWire{}, tr, err
	}
	start := time.Now()
	res, err := core.Run(method, inst, core.Options{
		Iterations: req.Iterations,
		Seed:       req.Seed,
		Restarts:   req.Restarts,
		Strategy:   strat,
		Objective:  obj,
	})
	tr.runNs = int64(time.Since(start))
	if err != nil {
		return resultWire{}, tr, err
	}
	tr.measureNs, tr.measureCalls, tr.configs = tm.nanos, tm.calls, tm.cfgs
	tr.cert, tr.space, tr.evaluations = res.Cert, p.schema.Size(), res.SearchEvaluations
	return coreResultWire(res), tr, nil
}

// optimum is the proven optimum of one (workload, platform, objective).
type optimum struct {
	value float64
	space int
}

// refKey identifies the problem an optimum belongs to: the canonical
// request with every search knob dropped.
func refKey(r canonical) canonical {
	return canonical{Workload: r.Workload, Platform: r.Platform, SizeMB: r.SizeMB, Objective: r.Objective, Alpha: r.Alpha}
}

// prove solves the problem of r to proven optimality with the exact
// strategy on the measurement path. When crossCheck is set the optimum
// is also found by plain enumeration (EM), and the two must agree.
func (e *refEnv) prove(r canonical, crossCheck bool) (optimum, error) {
	exact := r
	exact.Method, exact.Strategy, exact.Prove, exact.Seed, exact.Iterations, exact.Restarts = "EM", "exact", true, 0, 1000, 1
	res, tr, err := e.compute(exact)
	if err != nil {
		return optimum{}, err
	}
	if tr.cert == nil || !tr.cert.Optimal {
		return optimum{}, fmt.Errorf("exact solve of %s on %s did not prove optimality", r.Workload, r.Platform)
	}
	opt := optimum{value: res.MeasuredObjective, space: tr.space}
	if crossCheck {
		em := exact
		em.Strategy, em.Prove = "exhaustive", false
		enum, _, err := e.compute(em)
		if err != nil {
			return optimum{}, err
		}
		if math.Abs(enum.MeasuredObjective-opt.value) > 1e-12*math.Abs(opt.value) {
			return optimum{}, fmt.Errorf("proof of %s on %s (%s): exact %.17g but enumeration %.17g", r.Workload, r.Platform, r.Objective, opt.value, enum.MeasuredObjective)
		}
	}
	return opt, nil
}

// optima proves each distinct problem behind reqs once, on up to
// workers goroutines. Problems are cross-checked by enumeration when
// there are at most crossCheckLimit of them.
func (e *refEnv) optima(reqs []canonical, workers int) (map[canonical]optimum, error) {
	var keys []canonical
	seen := map[canonical]bool{}
	for _, r := range reqs {
		k := refKey(r)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	out := make([]optimum, len(keys))
	err := parallel(len(keys), workers, func(i int) error {
		var err error
		out[i], err = e.prove(keys[i], len(keys) <= crossCheckLimit)
		return err
	})
	if err != nil {
		return nil, err
	}
	m := make(map[canonical]optimum, len(keys))
	for i, k := range keys {
		m[k] = out[i]
	}
	return m, nil
}

// crossCheckLimit bounds how many optima are re-derived by enumeration:
// every one on warm-hits and mixed-cluster, whose problems repeat. On
// cold-tune every request is its own problem and enumerating each would
// cost more than the run; there the em class's answers, which
// enumerate, check the proofs instead (see checker.quality).
const crossCheckLimit = 128

// parallel runs fn(0..n-1) on up to workers goroutines and returns the
// first error.
func parallel(n, workers int, fn func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[w] != nil {
					return
				}
				errs[w] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// gapPct is how far a measured objective lies above the optimum, in
// percent of the optimum.
func gapPct(measured float64, opt optimum) float64 {
	return (measured - opt.value) / math.Abs(opt.value) * 100
}

// expected holds the direct answer to one canonical request.
type expected struct {
	result   []byte // json.Marshal of the wire result
	warm     []byte // the exact bytes a warm hit on the key answers with
	measured float64
	exps     int
	trace    runTrace
}

// expect computes the direct answer to each member on up to workers
// goroutines.
func (e *refEnv) expect(ms []member, workers int) ([]*expected, error) {
	out := make([]*expected, len(ms))
	err := parallel(len(ms), workers, func(i int) error {
		res, tr, err := e.compute(ms[i].req)
		if err != nil {
			return fmt.Errorf("direct compute of %s: %w", ms[i].key, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		warm, err := warmBody(ms[i], b)
		if err != nil {
			return err
		}
		out[i] = &expected{result: b, warm: warm, measured: res.MeasuredObjective, exps: res.Experiments, trace: tr}
		return nil
	})
	return out, err
}
