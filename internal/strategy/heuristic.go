package strategy

import (
	"math"

	"hetopt/internal/heuristics"
)

// The metaheuristic strategies port internal/heuristics — the
// alternatives the paper weighs against simulated annealing in Section
// III-A — onto the strategy layer. Each runs K independent restarts
// (Options.Restarts) through heuristics.SearchMulti with explicit
// ChainSeed-derived per-restart seeds, sharing a single-flight
// evaluation memo when K > 1; the best restart wins, ties broken by the
// lowest index. All of them recombine or mutate states coordinate-wise,
// so they require Spaced.

// heuristicWorker is one restart's view of the shared problem: it
// adapts the error-returning strategy.Problem to heuristics.Problem
// with a restart-local sticky error.
type heuristicWorker struct {
	p   Spaced
	err error
}

func (w *heuristicWorker) Dim() int         { return w.p.Dim() }
func (w *heuristicWorker) Levels(i int) int { return w.p.Levels(i) }

func (w *heuristicWorker) Energy(state []int) float64 {
	if w.err != nil {
		return math.Inf(1)
	}
	e, err := w.p.Energy(state)
	if err != nil {
		w.err = err
		return math.Inf(1)
	}
	return e
}

// minimizeHeuristic is the shared restart fan-out behind the four
// heuristic strategies.
func minimizeHeuristic(name string, p Problem, opt Options, run heuristics.Searcher) (Result, error) {
	sp, err := spacedOrErr(name, p)
	if err != nil {
		return Result{}, err
	}
	restarts := opt.restarts()
	eval := sp
	if restarts > 1 {
		eval = withMemo(sp).(Spaced)
	}
	workers := make([]*heuristicWorker, restarts)
	res, err := heuristics.SearchMulti(func(i int) heuristics.Problem {
		workers[i] = &heuristicWorker{p: eval}
		return workers[i]
	}, run, heuristics.MultiOptions{
		Options:     heuristics.Options{Budget: opt.budget(), Seed: opt.Seed},
		Restarts:    restarts,
		Parallelism: opt.Parallelism,
	})
	if err != nil {
		return Result{}, err
	}
	for _, w := range workers {
		if w.err != nil {
			return Result{}, w.err
		}
	}
	return Result{
		Best:        res.Best,
		BestEnergy:  res.BestEnergy,
		Evaluations: res.TotalEvaluations(),
		Worker:      res.Restart,
		Workers:     restarts,
	}, nil
}

// Random is uniform random sampling: the natural lower baseline every
// other strategy must beat.
type Random struct{}

// Name implements Strategy.
func (Random) Name() string { return "random" }

// Minimize implements Strategy.
func (Random) Minimize(p Problem, opt Options) (Result, error) {
	return minimizeHeuristic("random", p, opt, heuristics.RandomSearch)
}

// Local is steepest-descent hill climbing with random restarts within
// each worker's budget.
type Local struct{}

// Name implements Strategy.
func (Local) Name() string { return "local" }

// Minimize implements Strategy.
func (Local) Minimize(p Problem, opt Options) (Result, error) {
	return minimizeHeuristic("local", p, opt, heuristics.LocalSearch)
}

// Tabu is tabu search with short-term memory and aspiration.
type Tabu struct {
	// Tenure and Samples tune the tabu memory; zero selects the
	// heuristics package defaults (2*Dim and 4*Dim).
	Tenure, Samples int
}

// Name implements Strategy.
func (Tabu) Name() string { return "tabu" }

// Minimize implements Strategy.
func (t Tabu) Minimize(p Problem, opt Options) (Result, error) {
	return minimizeHeuristic("tabu", p, opt, func(hp heuristics.Problem, hopt heuristics.Options) (heuristics.Result, error) {
		return heuristics.TabuSearch(hp, heuristics.TabuOptions{Options: hopt, Tenure: t.Tenure, Samples: t.Samples})
	})
}

// Genetic is a generational genetic algorithm with tournament
// selection, uniform crossover, per-gene mutation and elitism.
type Genetic struct {
	// Population, MutationRate and Elite tune the GA; zero selects the
	// heuristics package defaults (24, 1/Dim, 2).
	Population   int
	MutationRate float64
	Elite        int
}

// Name implements Strategy.
func (Genetic) Name() string { return "genetic" }

// Minimize implements Strategy.
func (g Genetic) Minimize(p Problem, opt Options) (Result, error) {
	return minimizeHeuristic("genetic", p, opt, func(hp heuristics.Problem, hopt heuristics.Options) (heuristics.Result, error) {
		return heuristics.Genetic(hp, heuristics.GeneticOptions{
			Options:      hopt,
			Population:   g.Population,
			MutationRate: g.MutationRate,
			Elite:        g.Elite,
		})
	})
}
