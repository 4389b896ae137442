// Package heuristics implements the alternative metaheuristics the paper
// weighs against simulated annealing when discussing how to explore the
// configuration space (Section III-A, citing Press et al.: genetic
// algorithms, local search, tabu search). The paper selects SA; this
// package makes the comparison concrete — an extension experiment ranks
// all of them on the same tuning problem under equal evaluation budgets.
//
// All searchers minimize an energy over integer index vectors (one index
// per discrete parameter), the same representation internal/space and
// internal/anneal use, and spend at most Budget energy evaluations.
package heuristics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Problem is a discrete minimization problem over index vectors.
type Problem interface {
	// Dim returns the number of parameters.
	Dim() int
	// Levels returns the number of values parameter i can take.
	Levels(i int) int
	// Energy evaluates a state; lower is better. NaN is treated as +Inf.
	Energy(state []int) float64
}

// Result is the outcome of a search.
type Result struct {
	// Best is the lowest-energy state found; BestEnergy its energy.
	Best       []int
	BestEnergy float64
	// Evaluations counts energy calls actually spent.
	Evaluations int
}

// Options configures a search run.
type Options struct {
	// Budget caps the number of energy evaluations. Zero selects 1000.
	Budget int
	// Seed drives all stochastic choices.
	Seed int64
}

func (o Options) budget() int {
	if o.Budget <= 0 {
		return 1000
	}
	return o.Budget
}

// validate checks the problem's shape.
func validate(p Problem) error {
	if p.Dim() <= 0 {
		return fmt.Errorf("heuristics: problem dimension must be positive")
	}
	for i := 0; i < p.Dim(); i++ {
		if p.Levels(i) <= 0 {
			return fmt.Errorf("heuristics: parameter %d has no levels", i)
		}
	}
	return nil
}

// randomState fills dst uniformly.
func randomState(p Problem, dst []int, rng *rand.Rand) {
	for i := range dst {
		dst[i] = rng.Intn(p.Levels(i))
	}
}

// sanitize maps NaN to +Inf.
func sanitize(e float64) float64 {
	if math.IsNaN(e) {
		return math.Inf(1)
	}
	return e
}

// counter wraps a problem with budget accounting.
type counter struct {
	p     Problem
	used  int
	limit int
}

func (c *counter) spent() bool { return c.used >= c.limit }

func (c *counter) eval(state []int) (float64, bool) {
	if c.spent() {
		return math.Inf(1), false
	}
	c.used++
	return sanitize(c.p.Energy(state)), true
}

// RandomSearch samples the space uniformly: the natural lower baseline
// every metaheuristic must beat.
func RandomSearch(p Problem, opt Options) (Result, error) {
	if err := validate(p); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	c := &counter{p: p, limit: opt.budget()}
	cur := make([]int, p.Dim())
	best := make([]int, p.Dim())
	bestE := math.Inf(1)
	for !c.spent() {
		randomState(p, cur, rng)
		e, ok := c.eval(cur)
		if !ok {
			break
		}
		if e < bestE {
			bestE = e
			copy(best, cur)
		}
	}
	return Result{Best: best, BestEnergy: bestE, Evaluations: c.used}, nil
}

// LocalSearch is steepest-descent hill climbing with random restarts:
// from a random start it repeatedly moves to the best single-parameter
// change, restarting from a fresh random state at local minima, until the
// budget is exhausted.
func LocalSearch(p Problem, opt Options) (Result, error) {
	if err := validate(p); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	c := &counter{p: p, limit: opt.budget()}
	cur := make([]int, p.Dim())
	cand := make([]int, p.Dim())
	best := make([]int, p.Dim())
	bestE := math.Inf(1)

	for !c.spent() {
		randomState(p, cur, rng)
		curE, ok := c.eval(cur)
		if !ok {
			break
		}
		if curE < bestE {
			bestE = curE
			copy(best, cur)
		}
		for { // descend
			improved := false
			bestMoveE := curE
			var bestMoveParam, bestMoveValue int
			for i := 0; i < p.Dim() && !c.spent(); i++ {
				for v := 0; v < p.Levels(i); v++ {
					if v == cur[i] {
						continue
					}
					copy(cand, cur)
					cand[i] = v
					e, ok := c.eval(cand)
					if !ok {
						break
					}
					if e < bestMoveE {
						bestMoveE = e
						bestMoveParam, bestMoveValue = i, v
						improved = true
					}
				}
			}
			if !improved {
				break
			}
			cur[bestMoveParam] = bestMoveValue
			curE = bestMoveE
			if curE < bestE {
				bestE = curE
				copy(best, cur)
			}
			if c.spent() {
				break
			}
		}
	}
	return Result{Best: best, BestEnergy: bestE, Evaluations: c.used}, nil
}

// TabuOptions extends Options for tabu search.
type TabuOptions struct {
	Options
	// Tenure is the number of iterations a reversed move stays
	// forbidden. Zero selects 2*Dim.
	Tenure int
	// Samples is the number of random single-parameter moves examined
	// per iteration. Zero selects 4*Dim.
	Samples int
}

// TabuSearch explores with a short-term memory: the best sampled
// non-tabu neighbor is accepted even when worse, reversing moves is tabu
// for Tenure iterations, and tabu moves are still taken when they beat
// the global best (aspiration).
func TabuSearch(p Problem, opt TabuOptions) (Result, error) {
	if err := validate(p); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	c := &counter{p: p, limit: opt.budget()}
	tenure := opt.Tenure
	if tenure <= 0 {
		tenure = 2 * p.Dim()
	}
	samples := opt.Samples
	if samples <= 0 {
		samples = 4 * p.Dim()
	}

	cur := make([]int, p.Dim())
	cand := make([]int, p.Dim())
	best := make([]int, p.Dim())
	randomState(p, cur, rng)
	curE, _ := c.eval(cur)
	bestE := curE
	copy(best, cur)

	type assignment struct{ param, value int }
	tabuUntil := map[assignment]int{}

	for iter := 0; !c.spent(); iter++ {
		type move struct {
			param, value int
			energy       float64
		}
		chosen := move{param: -1, energy: math.Inf(1)}
		for s := 0; s < samples && !c.spent(); s++ {
			i := rng.Intn(p.Dim())
			if p.Levels(i) < 2 {
				continue
			}
			v := rng.Intn(p.Levels(i) - 1)
			if v >= cur[i] {
				v++
			}
			copy(cand, cur)
			cand[i] = v
			e, ok := c.eval(cand)
			if !ok {
				break
			}
			// The move back to the current value is what becomes tabu;
			// moving *to* a tabu assignment is forbidden unless it
			// aspirates.
			isTabu := tabuUntil[assignment{i, v}] > iter
			if isTabu && e >= bestE {
				continue
			}
			if e < chosen.energy {
				chosen = move{param: i, value: v, energy: e}
			}
		}
		if chosen.param < 0 {
			continue
		}
		// Forbid undoing this move for tenure iterations.
		tabuUntil[assignment{chosen.param, cur[chosen.param]}] = iter + tenure
		cur[chosen.param] = chosen.value
		curE = chosen.energy
		if curE < bestE {
			bestE = curE
			copy(best, cur)
		}
	}
	return Result{Best: best, BestEnergy: bestE, Evaluations: c.used}, nil
}

// GeneticOptions extends Options for the genetic algorithm.
type GeneticOptions struct {
	Options
	// Population is the number of individuals. Zero selects 24.
	Population int
	// MutationRate is the per-gene mutation probability. Zero selects
	// 1/Dim.
	MutationRate float64
	// Elite is the number of best individuals copied unchanged into the
	// next generation. Zero selects 2.
	Elite int
}

// Genetic runs a generational genetic algorithm with tournament
// selection, uniform crossover, per-gene mutation and elitism.
func Genetic(p Problem, opt GeneticOptions) (Result, error) {
	if err := validate(p); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	c := &counter{p: p, limit: opt.budget()}
	pop := opt.Population
	if pop <= 0 {
		pop = 24
	}
	if pop < 2 {
		return Result{}, fmt.Errorf("heuristics: population must be at least 2, got %d", pop)
	}
	mut := opt.MutationRate
	if mut == 0 {
		mut = 1 / float64(p.Dim())
	}
	if mut < 0 || mut > 1 {
		return Result{}, fmt.Errorf("heuristics: mutation rate %g outside [0,1]", mut)
	}
	elite := opt.Elite
	if elite == 0 {
		elite = 2
	}
	if elite < 0 || elite >= pop {
		return Result{}, fmt.Errorf("heuristics: elite count %d outside [0,%d)", elite, pop)
	}

	type indiv struct {
		genes  []int
		energy float64
	}
	population := make([]indiv, pop)
	for i := range population {
		g := make([]int, p.Dim())
		randomState(p, g, rng)
		e, _ := c.eval(g)
		population[i] = indiv{genes: g, energy: e}
	}
	best := append([]int(nil), population[0].genes...)
	bestE := population[0].energy
	record := func(in indiv) {
		if in.energy < bestE {
			bestE = in.energy
			copy(best, in.genes)
		}
	}
	for _, in := range population {
		record(in)
	}

	tournament := func() indiv {
		a := population[rng.Intn(pop)]
		b := population[rng.Intn(pop)]
		if a.energy <= b.energy {
			return a
		}
		return b
	}
	makeChild := func() []int {
		ma, pa := tournament(), tournament()
		child := make([]int, p.Dim())
		for g := range child {
			if rng.Intn(2) == 0 {
				child[g] = ma.genes[g]
			} else {
				child[g] = pa.genes[g]
			}
			if rng.Float64() < mut {
				child[g] = rng.Intn(p.Levels(g))
			}
		}
		return child
	}

	for !c.spent() {
		// Elitism: carry the best individuals over unchanged.
		sort.Slice(population, func(i, j int) bool { return population[i].energy < population[j].energy })
		next := make([]indiv, 0, pop)
		for i := 0; i < elite; i++ {
			next = append(next, population[i])
		}
		for len(next) < pop && !c.spent() {
			child := makeChild()
			e, ok := c.eval(child)
			if !ok {
				break
			}
			in := indiv{genes: child, energy: e}
			record(in)
			next = append(next, in)
		}
		if len(next) < pop {
			break // budget exhausted mid-generation
		}
		population = next
	}
	return Result{Best: best, BestEnergy: bestE, Evaluations: c.used}, nil
}
