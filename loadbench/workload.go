package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"hetopt/internal/serve"
)

// target is one (workload, platform) pair a request tunes.
type target struct {
	workload, platform string
}

// family returns the workload family of t ("dna:human" -> "dna").
func (t target) family() string {
	f, _, _ := strings.Cut(t.workload, ":")
	return f
}

// A model pair is a (platform, family) the ML methods need trained.
type modelPair struct {
	platform, family string
}

func (p modelPair) String() string { return p.platform + "." + p.family }

// probePair is the model pair every workload trains: the traced run's
// per-class probes need a trained pair on the node they target, so the
// probes and every workload's ML traffic share it.
var probePair = modelPair{platform: "gpu-like", family: "spmv"}

// class is one kind of tune request. The cold classes are the request
// types whose cost lives below the serving layer; their layer rows are
// what the traced run breaks down.
type class struct {
	name string
	ml   bool // needs a trained model pair
	dag  bool // task-graph placement, not a divisible workload
	// base returns the request for t, before its seed and size are set.
	base func(t target) serve.TuneRequest
}

func divisible(method string) func(target) serve.TuneRequest {
	return func(t target) serve.TuneRequest {
		return serve.TuneRequest{Workload: t.workload, Platform: t.platform, Method: method}
	}
}

// coldClasses is the cold-tune mix, in a fixed order: the paper's four
// methods (SAM with 4 restarts), a proved exact solve, the racing
// portfolio, an energy-objective SAM, and a DAG placement.
var coldClasses = []class{
	{name: "em", base: divisible("em")},
	{name: "eml", ml: true, base: divisible("eml")},
	{name: "sam4", base: func(t target) serve.TuneRequest {
		r := divisible("sam")(t)
		r.Restarts = 4
		return r
	}},
	{name: "saml", ml: true, base: divisible("saml")},
	{name: "exact", base: func(t target) serve.TuneRequest {
		r := divisible("em")(t)
		r.Strategy, r.Prove = "exact", true
		return r
	}},
	{name: "portfolio", base: func(t target) serve.TuneRequest {
		r := divisible("sam")(t)
		r.Strategy = "portfolio"
		return r
	}},
	{name: "energy", base: func(t target) serve.TuneRequest {
		r := divisible("sam")(t)
		r.Objective = "energy"
		return r
	}},
	{name: "dag", dag: true, base: func(t target) serve.TuneRequest {
		return serve.TuneRequest{Workload: "dag:resnet-ish", Platform: t.platform, Method: "sam"}
	}},
}

// cheapClasses are the classes whose cold cost is a few milliseconds:
// the warm and mixed universes use them so preparation stays short.
// Enumeration (em, eml) and the portfolio are cold-tune only.
func cheapClasses() []class {
	var out []class
	for _, c := range coldClasses {
		switch c.name {
		case "em", "eml", "portfolio":
		default:
			out = append(out, c)
		}
	}
	out = append(out, class{name: "sam", base: divisible("sam")})
	return out
}

// workloadSpec fixes one benchmark workload: its request source, the
// model pairs its ML classes use, and its node layout.
type workloadSpec struct {
	name      string
	nodes     int
	storeSize int
	pairs     []modelPair
}

var workloads = map[string]workloadSpec{
	"warm-hits":     {name: "warm-hits", nodes: 1, storeSize: 1024, pairs: []modelPair{probePair}},
	"cold-tune":     {name: "cold-tune", nodes: 1, storeSize: 1024, pairs: []modelPair{{platform: "paper", family: "dna"}, probePair}},
	"mixed-cluster": {name: "mixed-cluster", nodes: 2, storeSize: mixedStoreSize, pairs: []modelPair{probePair}},
}

const (
	warmUniverse   = 256 // canonical requests behind warm-hits
	mixedUniverse  = 768 // single requests behind mixed-cluster, > 3x mixedStoreSize
	mixedStoreSize = 128 // per-node warm-start store bound on mixed-cluster
	batchTemplates = 32  // distinct alpha sweeps behind mixed-cluster
	batchShare     = 0.05
	zipfS          = 1.1
)

// sweepAlphas is the 5-alpha time/energy sweep of a batch request.
var sweepAlphas = []float64{0, 0.25, 0.5, 0.75, 1}

// item is one request the load generator can send: a single tune
// request, or an alpha-sweep batch whose members are canonical requests
// of their own.
type item struct {
	class   string
	body    []byte
	batch   bool
	members []member // one for a single request, len(sweepAlphas) for a batch
}

// member is one canonical request and its store key.
type member struct {
	req serve.TuneRequest
	key string
}

// newItem builds a single-request item from a raw request.
func newItem(cls string, raw serve.TuneRequest) (*item, error) {
	canon, err := raw.Normalize()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(raw)
	if err != nil {
		return nil, err
	}
	return &item{class: cls, body: body, members: []member{{req: canon, key: canon.Key()}}}, nil
}

// newBatch builds an alpha-sweep batch item over a template request.
func newBatch(tmpl serve.TuneRequest) (*item, error) {
	body, err := json.Marshal(serve.BatchRequest{Template: &tmpl, Alphas: sweepAlphas})
	if err != nil {
		return nil, err
	}
	it := &item{class: "batch", body: body, batch: true}
	for _, a := range sweepAlphas {
		r := tmpl
		r.Objective, r.Alpha = "weighted", a
		canon, err := r.Normalize()
		if err != nil {
			return nil, err
		}
		it.members = append(it.members, member{req: canon, key: canon.Key()})
	}
	return it, nil
}

// request is one draw of the traffic: which item, sent to which node.
type request struct {
	item *item
	node int
}

// stream is a seeded, deterministic request sequence. Clients share
// it, so the sequence of requests sent is a function of the seed alone;
// which client sends which request is not.
type stream struct {
	mu   sync.Mutex
	next func() request
}

func (s *stream) take() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next()
}

// generator draws the seeded requests of one workload.
type generator struct {
	rng   *rand.Rand
	spec  workloadSpec
	seen  map[string]bool
	turns map[string]int // requests generated per class
	n     int64          // requests generated, folded into seeds
}

func newGenerator(spec workloadSpec, seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), spec: spec, seen: map[string]bool{}, turns: map[string]int{}}
}

var (
	warmPresets  = []string{"dna:human", "dna:mouse", "dna:cat", "dna:dog", "spmv:medium", "spmv:small", "spmv:large"}
	mixedPresets = []string{"dna:human", "dna:mouse", "spmv:medium", "spmv:small"}
	platforms    = []string{"paper", "gpu-like"}
)

// targets lists every target class c runs on: ML classes only on the
// workload's trained pairs, DAG placements on each platform, the rest
// on every preset of every platform.
func (g *generator) targets(c class, presets []string) []target {
	var out []target
	switch {
	case c.dag:
		for _, p := range platforms {
			out = append(out, target{workload: "dag:resnet-ish", platform: p})
		}
	case c.ml:
		for _, p := range g.spec.pairs {
			for _, w := range presets {
				if (target{workload: w}).family() == p.family {
					out = append(out, target{workload: w, platform: p.platform})
				}
			}
		}
	default:
		for _, p := range platforms {
			for _, w := range presets {
				out = append(out, target{workload: w, platform: p})
			}
		}
	}
	return out
}

// next returns the target of class c's next request and how many times
// c has cycled through its targets. Cycling, rather than drawing, gives
// every (class, target) the same share of a workload whatever the seed,
// so seeds move only what they should: request seeds and sizes.
func (g *generator) next(c class, presets []string) (target, int) {
	ts := g.targets(c, presets)
	k := g.turns[c.name]
	g.turns[c.name]++
	return ts[k%len(ts)], k / len(ts)
}

// presetSize is the catalog size of a qualified preset.
func presetSize(workload string) (float64, error) {
	canon, err := serve.TuneRequest{Workload: workload}.Normalize()
	if err != nil {
		return 0, err
	}
	return canon.SizeMB, nil
}

// cold draws a request of class c with a key no earlier request had and
// a workload size no earlier request used, so neither the store, nor
// the shared measurement memo, nor a predictor cache can replay it.
func (g *generator) cold(c class) (*item, error) {
	t, _ := g.next(c, []string{"dna:human", "spmv:medium"})
	raw := c.base(t)
	g.n++
	raw.Seed = g.n*7919 + g.rng.Int63n(7919)
	if !c.dag {
		base, err := presetSize(raw.Workload)
		if err != nil {
			return nil, err
		}
		for {
			// Millibyte resolution over [0.5, 1.5) of the preset: a fresh
			// size per request, redrawn on the rare collision.
			raw.SizeMB = math.Round(base*(0.5+g.rng.Float64())*1000) / 1000
			if k := fmt.Sprint(raw.Platform, raw.Workload, raw.SizeMB); !g.seen[k] {
				g.seen[k] = true
				break
			}
		}
	}
	return newItem(c.name, raw)
}

// universe draws n distinct canonical requests over presets, cycling
// through classes so every class has the same share whatever the seed.
func (g *generator) universe(n int, classes []class, presets []string) ([]*item, error) {
	keys := map[string]bool{}
	out := make([]*item, 0, n)
	for len(out) < n {
		c := classes[len(out)%len(classes)]
		t, round := g.next(c, presets)
		raw := c.base(t)
		raw.Seed = g.rng.Int63n(1 << 20)
		raw.Iterations = []int{500, 1000}[round%2]
		it, err := newItem(c.name, raw)
		if err != nil {
			return nil, err
		}
		if keys[it.members[0].key] {
			continue
		}
		keys[it.members[0].key] = true
		out = append(out, it)
	}
	return out, nil
}

// batches draws n distinct alpha-sweep templates over presets.
func (g *generator) batches(n int, presets []string) ([]*item, error) {
	out := make([]*item, 0, n)
	sweep := class{name: "batch", base: divisible("sam")}
	for i := 0; i < n; i++ {
		t, _ := g.next(sweep, presets)
		tmpl := sweep.base(t)
		tmpl.Seed = int64(i)*104729 + g.rng.Int63n(104729)
		it, err := newBatch(tmpl)
		if err != nil {
			return nil, err
		}
		out = append(out, it)
	}
	return out, nil
}

// traffic is a workload's prepared request source.
type traffic struct {
	spec     workloadSpec
	universe []*item // warm-hits and mixed-cluster: every item the stream draws
	stream   *stream
}

// newTraffic prepares the seeded traffic of a workload.
func newTraffic(spec workloadSpec, seed int64) (*traffic, error) {
	g := newGenerator(spec, seed)
	tr := &traffic{spec: spec}
	switch spec.name {
	case "warm-hits":
		u, err := g.universe(warmUniverse, cheapClasses(), warmPresets)
		if err != nil {
			return nil, err
		}
		tr.universe = u
		z := rand.NewZipf(g.rng, zipfS, 1, uint64(len(u)-1))
		tr.stream = &stream{next: func() request { return request{item: u[z.Uint64()]} }}
	case "cold-tune":
		// Classes come in seeded permutations of the whole mix, so any
		// prefix of the stream holds every class in near-equal share.
		var block []int
		tr.stream = &stream{next: func() request {
			if len(block) == 0 {
				block = g.rng.Perm(len(coldClasses))
			}
			c := coldClasses[block[0]]
			block = block[1:]
			it, err := g.cold(c)
			if err != nil {
				panic(err) // generated requests always normalize
			}
			return request{item: it}
		}}
	case "mixed-cluster":
		u, err := g.universe(mixedUniverse, cheapClasses(), mixedPresets)
		if err != nil {
			return nil, err
		}
		b, err := g.batches(batchTemplates, mixedPresets)
		if err != nil {
			return nil, err
		}
		tr.universe = append(u, b...)
		zu := rand.NewZipf(g.rng, zipfS, 1, uint64(len(u)-1))
		zb := rand.NewZipf(g.rng, zipfS, 1, uint64(len(b)-1))
		tr.stream = &stream{next: func() request {
			node := g.rng.Intn(spec.nodes)
			if g.rng.Float64() < batchShare {
				return request{item: b[zb.Uint64()], node: node}
			}
			return request{item: u[zu.Uint64()], node: node}
		}}
	default:
		return nil, fmt.Errorf("unknown workload %q", spec.name)
	}
	return tr, nil
}
