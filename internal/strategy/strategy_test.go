package strategy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"hetopt/internal/search"
)

// bowl is a separable quadratic over a product space with a unique
// minimum at target. Energy is concurrency-safe (atomic counter) so
// every strategy can drive it from parallel workers.
type bowl struct {
	levels []int
	target []int
	evals  atomic.Int64
}

func newBowl() *bowl {
	return &bowl{levels: []int{12, 12, 12}, target: []int{7, 3, 9}}
}

func (b *bowl) Dim() int         { return len(b.levels) }
func (b *bowl) Levels(i int) int { return b.levels[i] }

func (b *bowl) Initial(dst []int, rng *rand.Rand) {
	for i := range dst {
		dst[i] = rng.Intn(b.levels[i])
	}
}

func (b *bowl) Neighbor(dst, src []int, rng *rand.Rand) {
	copy(dst, src)
	i := rng.Intn(len(dst))
	if dst[i] == 0 {
		dst[i] = 1
	} else if dst[i] == b.levels[i]-1 {
		dst[i]--
	} else if rng.Intn(2) == 0 {
		dst[i]--
	} else {
		dst[i]++
	}
}

func (b *bowl) Energy(state []int) (float64, error) {
	b.evals.Add(1)
	e := 0.0
	for i, v := range state {
		d := float64(v - b.target[i])
		e += d * d
	}
	return e, nil
}

// coupled hides Levels: a Problem that is not Spaced.
type coupled struct{ b *bowl }

func (c coupled) Dim() int                                { return c.b.Dim() }
func (c coupled) Initial(dst []int, rng *rand.Rand)       { c.b.Initial(dst, rng) }
func (c coupled) Neighbor(dst, src []int, rng *rand.Rand) { c.b.Neighbor(dst, src, rng) }
func (c coupled) Energy(state []int) (float64, error)     { return c.b.Energy(state) }

// failing errors after a set number of evaluations.
type failing struct {
	*bowl
	after int64
}

func (f *failing) Energy(state []int) (float64, error) {
	if f.bowl.evals.Load() >= f.after {
		return 0, fmt.Errorf("injected evaluator failure")
	}
	return f.bowl.Energy(state)
}

func allStrategies() []Strategy {
	return []Strategy{DefaultAnneal(), Exhaustive{}, Genetic{}, Tabu{}, Local{}, Random{}, DefaultPortfolio()}
}

func TestAllStrategiesFindBowlMinimum(t *testing.T) {
	for _, s := range allStrategies() {
		res, err := s.Minimize(newBowl(), Options{Budget: 3000, Seed: 1, Restarts: 2})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		// Random sampling may miss the exact optimum on 12^3 states; every
		// guided strategy must hit it with 2x3000 evaluations.
		if _, isRandom := s.(Random); isRandom {
			if res.BestEnergy > 9 {
				t.Errorf("random: best = %g suspiciously bad", res.BestEnergy)
			}
			continue
		}
		if res.BestEnergy != 0 {
			t.Errorf("%s: best = %g at %v, want 0", s.Name(), res.BestEnergy, res.Best)
		}
	}
}

func TestExhaustiveMatchesSequentialScanAtAnyParallelism(t *testing.T) {
	want, err := Exhaustive{}.Minimize(newBowl(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.BestEnergy != 0 || want.Evaluations != 12*12*12 {
		t.Fatalf("sequential scan wrong: %+v", want)
	}
	for _, p := range []int{2, 3, 7, 16, 10000} {
		got, err := Exhaustive{}.Minimize(newBowl(), Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d diverged:\nwant %+v\ngot  %+v", p, want, got)
		}
	}
}

func TestSpacedRequirement(t *testing.T) {
	c := coupled{b: newBowl()}
	for _, s := range []Strategy{Exhaustive{}, Genetic{}, Tabu{}, Local{}, Random{}} {
		if _, err := s.Minimize(c, Options{Budget: 50}); err == nil {
			t.Errorf("%s must reject a non-product-space problem", s.Name())
		}
	}
	// Initial/Neighbor-driven strategies work on coupled problems.
	res, err := DefaultAnneal().Minimize(c, Options{Budget: 500, Seed: 3, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestEnergy != 0 {
		t.Errorf("anneal on coupled problem: best = %g, want 0", res.BestEnergy)
	}
	// A portfolio restricted to such members works too.
	pres, err := Portfolio{Members: []Strategy{DefaultAnneal()}}.Minimize(c, Options{Budget: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pres.BestEnergy != 0 {
		t.Errorf("portfolio on coupled problem: best = %g, want 0", pres.BestEnergy)
	}
}

func TestStrategyErrorPropagation(t *testing.T) {
	for _, s := range allStrategies() {
		f := &failing{bowl: newBowl(), after: 13}
		_, err := s.Minimize(f, Options{Budget: 200, Seed: 1, Restarts: 2, Parallelism: 2})
		if err == nil {
			t.Errorf("%s: injected failure must propagate", s.Name())
		}
	}
}

func TestAnnealSingleWorkerHasNoMemoOverhead(t *testing.T) {
	// One chain must evaluate through the raw problem (budget+1 calls),
	// preserving the pre-strategy-layer effort accounting.
	b := newBowl()
	res, err := DefaultAnneal().Minimize(b, Options{Budget: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 101 {
		t.Fatalf("evaluations = %d, want 101 (1 initial + 100 candidates)", res.Evaluations)
	}
	if got := b.evals.Load(); got != 101 {
		t.Fatalf("problem saw %d evaluations, want 101 (no dedup for a single chain)", got)
	}
	if res.Worker != 0 || res.Workers != 1 {
		t.Fatalf("worker accounting wrong: %+v", res)
	}
}

func TestRestartsShareMemo(t *testing.T) {
	// Multi-worker heuristics share a memo: the problem must see fewer
	// evaluations than the workers logically spent (the tiny space
	// guarantees overlap).
	b := newBowl()
	res, err := Local{}.Minimize(b, Options{Budget: 400, Seed: 2, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if paid := int(b.evals.Load()); paid >= res.Evaluations {
		t.Fatalf("paid %d evaluations for %d lookups; restarts must deduplicate", paid, res.Evaluations)
	}
}

func TestRestartsNeverWorseThanWorkerZero(t *testing.T) {
	for _, s := range []Strategy{DefaultAnneal(), Genetic{}, Tabu{}, Local{}, Random{}} {
		single, err := s.Minimize(newBowl(), Options{Budget: 120, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		multi, err := s.Minimize(newBowl(), Options{Budget: 120, Seed: 11, Restarts: 5})
		if err != nil {
			t.Fatal(err)
		}
		if multi.BestEnergy > single.BestEnergy {
			t.Errorf("%s: 5 restarts (%g) worse than restart 0 alone (%g)", s.Name(), multi.BestEnergy, single.BestEnergy)
		}
	}
}

func TestStateKeyDistinct(t *testing.T) {
	a := stateKey([]int{1, 2, 3})
	b := stateKey([]int{1, 2, 4})
	c := stateKey([]int{12, 3})
	if a == b || a == c || b == c {
		t.Fatalf("state keys collide: %q %q %q", a, b, c)
	}
	if a != stateKey([]int{1, 2, 3}) {
		t.Fatal("equal states must produce equal keys")
	}
}

func TestParse(t *testing.T) {
	for _, name := range Names() {
		s, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if s == nil {
			t.Fatalf("Parse(%q) returned nil strategy", name)
		}
		if s.Name() != name {
			t.Errorf("Parse(%q).Name() = %q", name, s.Name())
		}
	}
	for _, name := range []string{"", "auto", " AUTO "} {
		s, err := Parse(name)
		if err != nil || s != nil {
			t.Errorf("Parse(%q) = (%v, %v), want (nil, nil)", name, s, err)
		}
	}
	if _, err := Parse("quantum"); err == nil {
		t.Error("unknown strategy name must error")
	}
}

func TestNaNEnergyNeverWins(t *testing.T) {
	nan := &nanProblem{}
	for _, s := range allStrategies() {
		res, err := s.Minimize(nan, Options{Budget: 40, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !math.IsInf(res.BestEnergy, 1) {
			t.Errorf("%s: best = %g, want +Inf", s.Name(), res.BestEnergy)
		}
	}
}

type nanProblem struct{}

func (n *nanProblem) Dim() int                          { return 2 }
func (n *nanProblem) Levels(i int) int                  { return 3 }
func (n *nanProblem) Initial(dst []int, rng *rand.Rand) { dst[0], dst[1] = rng.Intn(3), rng.Intn(3) }
func (n *nanProblem) Neighbor(dst, src []int, rng *rand.Rand) {
	copy(dst, src)
	dst[rng.Intn(2)] = rng.Intn(3)
}
func (n *nanProblem) Energy(state []int) (float64, error) { return math.NaN(), nil }

// standaloneFanOut runs each of workers standalone, seeded
// search.ChainSeed(opt.Seed, i), and combines them as the fan-out must:
// the winner is the lowest energy at the lowest index, and Evaluations
// sums the workers' efforts. It also returns the per-worker results.
func standaloneFanOut(t *testing.T, s Strategy, problem func() Problem, opt Options, workers int) (Result, []Result) {
	t.Helper()
	var want Result
	per := make([]Result, workers)
	evals := 0
	for i := range per {
		r, err := s.Minimize(problem(), Options{Budget: opt.Budget, Seed: search.ChainSeed(opt.Seed, i)})
		if err != nil {
			t.Fatal(err)
		}
		per[i] = r
		evals += r.Evaluations
		if i == 0 || r.BestEnergy < want.BestEnergy {
			want = r
			want.Worker = i
		}
	}
	want.Evaluations, want.Workers = evals, workers
	return want, per
}

// TestWorkersMatchStandaloneRuns is the fan-out contract: worker i of a
// K-worker run is the single-worker run seeded search.ChainSeed(Seed, i)
// (so worker 0 reproduces a plain run), the winner is the lowest energy
// at the lowest index, and Evaluations sums the workers' efforts.
func TestWorkersMatchStandaloneRuns(t *testing.T) {
	const workers = 4
	for _, s := range []Strategy{DefaultAnneal(), Genetic{}, Tabu{}, Local{}, Random{}} {
		opt := Options{Budget: 60, Seed: 12, Restarts: workers, Parallelism: 2}
		multi, err := s.Minimize(newBowl(), opt)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := standaloneFanOut(t, s, func() Problem { return newBowl() }, opt, workers)
		if !reflect.DeepEqual(want, multi) {
			t.Errorf("%s: %d-worker run diverged from its standalone workers:\nwant %+v\ngot  %+v", s.Name(), workers, want, multi)
		}
	}
}

// TestAnnealSingleWorkerMatchesMinimize: one annealing chain run
// through the fan-out (Restarts 1, Parallelism 2) is the plain run.
func TestAnnealSingleWorkerMatchesMinimize(t *testing.T) {
	a := Anneal{InitialTemp: 50, StopTemp: 0.01}
	plain, err := a.Minimize(newBowl(), Options{Budget: 400, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	one, err := a.Minimize(newBowl(), Options{Budget: 400, Seed: 9, Restarts: 1, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, one) {
		t.Fatalf("one chain diverged from the plain run:\nplain %+v\none   %+v", plain, one)
	}
	if one.Worker != 0 || one.Workers != 1 {
		t.Fatalf("chain bookkeeping = %d/%d, want 0/1", one.Worker, one.Workers)
	}
}

// TestRestartZeroMatchesSingleRun: for every heuristic, a single
// restart run through the fan-out is the plain run.
func TestRestartZeroMatchesSingleRun(t *testing.T) {
	for _, s := range []Strategy{Genetic{}, Tabu{}, Local{}, Random{}} {
		plain, err := s.Minimize(newBowl(), Options{Budget: 300, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		one, err := s.Minimize(newBowl(), Options{Budget: 300, Seed: 4, Restarts: 1, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, one) {
			t.Errorf("%s: single restart diverged from the plain run:\nplain %+v\none   %+v", s.Name(), plain, one)
		}
		if one.Worker != 0 || one.Workers != 1 {
			t.Errorf("%s: bookkeeping = %d/%d, want 0/1", s.Name(), one.Worker, one.Workers)
		}
	}
}

// TestAnnealPicksBestChain: on a rugged landscape the chains end at
// different energies, and the winner is the best of them at the lowest
// index, with every chain's full budget counted.
func TestAnnealPicksBestChain(t *testing.T) {
	const chains, budget = 5, 40
	problem := func() Problem { return rugged{&bowl{levels: []int{16, 16, 16, 16}, target: []int{5, 2, 9, 11}}} }
	a := Anneal{InitialTemp: 100, StopTemp: 0.01}
	res, err := a.Minimize(problem(), Options{Budget: budget, Seed: 11, Restarts: chains})
	if err != nil {
		t.Fatal(err)
	}
	want, per := standaloneFanOut(t, a, problem, Options{Budget: budget, Seed: 11}, chains)
	distinct := false
	for i, c := range per {
		if c.BestEnergy < res.BestEnergy {
			t.Fatalf("chain %d energy %g beats winner %g", i, c.BestEnergy, res.BestEnergy)
		}
		distinct = distinct || c.BestEnergy != per[0].BestEnergy
	}
	if !distinct {
		t.Fatal("every chain ended at the same energy; the landscape does not exercise the pick")
	}
	if !reflect.DeepEqual(want, res) {
		t.Fatalf("winner is not the best chain at the lowest index:\nwant %+v\ngot  %+v", want, res)
	}
	if res.Evaluations < chains*budget {
		t.Fatalf("evaluations = %d, want at least %d", res.Evaluations, chains*budget)
	}
}

var errInjected = errors.New("injected evaluator failure")

// failAt fails its k-th Energy call and counts every Energy or
// Neighbor call made after that failure.
type failAt struct {
	*bowl
	k      int64
	calls  atomic.Int64
	failed atomic.Bool
	after  atomic.Int64
}

func (f *failAt) Neighbor(dst, src []int, rng *rand.Rand) {
	if f.failed.Load() {
		f.after.Add(1)
	}
	f.bowl.Neighbor(dst, src, rng)
}

func (f *failAt) Energy(state []int) (float64, error) {
	if f.failed.Load() {
		f.after.Add(1)
	}
	if f.calls.Add(1) == f.k {
		f.failed.Store(true)
		return 0, errInjected
	}
	return f.bowl.Energy(state)
}

// TestEnergyErrorStopsWorker: a worker returns on its first Energy
// error. Workers run sequentially here, so the failing worker is the
// last one to run and nothing may touch the problem after the failure.
func TestEnergyErrorStopsWorker(t *testing.T) {
	for _, s := range []Strategy{DefaultAnneal(), Genetic{}, Tabu{}, Local{}, Random{}} {
		for _, restarts := range []int{1, 4} {
			for _, k := range []int64{3, 150} {
				f := &failAt{bowl: newBowl(), k: k}
				_, err := s.Minimize(f, Options{Budget: 100000, Seed: 1, Restarts: restarts})
				if !errors.Is(err, errInjected) {
					t.Errorf("%s/%d/k=%d: error %v, want the injected failure", s.Name(), restarts, k, err)
				}
				if n := f.after.Load(); n != 0 {
					t.Errorf("%s/%d/k=%d: %d calls after the failing Energy call", s.Name(), restarts, k, n)
				}
			}
		}
	}
}
