package strategy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// The metaheuristic strategies are the alternatives the paper weighs
// against simulated annealing in Section III-A (citing Press et al.:
// genetic algorithms, local search, tabu search), plus uniform random
// sampling as the baseline. Each worker spends at most Options.Budget
// energy evaluations and evaluates the problem's Initial state first,
// drawing any later start uniformly; the fan-out, seeding and winner
// selection are fanOut's. All of them recombine or mutate states
// coordinate-wise, so they require Spaced.

// minimizeHeuristic validates the product space once, then fans the
// searcher out over the workers.
func minimizeHeuristic(name string, p Problem, opt Options, run func(p Spaced, c *counter, rng *rand.Rand) (Result, error)) (Result, error) {
	sp, err := spacedOrErr(name, p)
	if err != nil {
		return Result{}, err
	}
	if sp.Dim() <= 0 {
		return Result{}, fmt.Errorf("strategy: %s: problem dimension must be positive", name)
	}
	for i := 0; i < sp.Dim(); i++ {
		if sp.Levels(i) <= 0 {
			return Result{}, fmt.Errorf("strategy: %s: parameter %d has no levels", name, i)
		}
	}
	return fanOut(sp, opt, func(p Problem, _ int, seed int64) (Result, error) {
		wp := p.(Spaced) // fanOut's memo preserves Spaced
		return run(wp, &counter{p: wp, limit: opt.budget()}, rand.New(rand.NewSource(seed)))
	})
}

// counter is one worker's budget accounting. The first Energy error is
// kept and spends the budget, so every search loop stops at once.
type counter struct {
	p     Spaced
	used  int
	limit int
	err   error
}

func (c *counter) spent() bool { return c.used >= c.limit || c.err != nil }

func (c *counter) eval(state []int) (float64, bool) {
	if c.spent() {
		return math.Inf(1), false
	}
	c.used++
	e, err := c.p.Energy(state)
	if err != nil {
		c.err = err
		return math.Inf(1), false
	}
	return sanitize(e), true
}

// result closes a worker: its best state, or the Energy error that
// stopped it.
func (c *counter) result(best []int, bestE float64) (Result, error) {
	if c.err != nil {
		return Result{}, c.err
	}
	return Result{Best: best, BestEnergy: bestE, Evaluations: c.used}, nil
}

// randomState fills dst uniformly.
func randomState(p Spaced, dst []int, rng *rand.Rand) {
	for i := range dst {
		dst[i] = rng.Intn(p.Levels(i))
	}
}

// Random is uniform random sampling: the natural lower baseline every
// other strategy must beat.
type Random struct{}

// Name implements Strategy.
func (Random) Name() string { return "random" }

// Minimize implements Strategy.
func (Random) Minimize(p Problem, opt Options) (Result, error) {
	return minimizeHeuristic("random", p, opt, randomSearch)
}

func randomSearch(p Spaced, c *counter, rng *rand.Rand) (Result, error) {
	cur := make([]int, p.Dim())
	best := make([]int, p.Dim())
	bestE := math.Inf(1)
	p.Initial(cur, rng)
	for ; !c.spent(); randomState(p, cur, rng) {
		e, ok := c.eval(cur)
		if !ok {
			break
		}
		if e < bestE {
			bestE = e
			copy(best, cur)
		}
	}
	return c.result(best, bestE)
}

// Local is steepest-descent hill climbing with random restarts: from a
// random start it repeatedly moves to the best single-parameter change,
// restarting from a fresh random state at local minima, until the
// worker's budget is spent.
type Local struct{}

// Name implements Strategy.
func (Local) Name() string { return "local" }

// Minimize implements Strategy.
func (Local) Minimize(p Problem, opt Options) (Result, error) {
	return minimizeHeuristic("local", p, opt, localSearch)
}

func localSearch(p Spaced, c *counter, rng *rand.Rand) (Result, error) {
	cur := make([]int, p.Dim())
	cand := make([]int, p.Dim())
	best := make([]int, p.Dim())
	bestE := math.Inf(1)

	p.Initial(cur, rng)
	for ; !c.spent(); randomState(p, cur, rng) {
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
	return c.result(best, bestE)
}

// Tabu is tabu search with a short-term memory: the best sampled
// non-tabu neighbor is accepted even when worse, reversing a move is
// tabu for Tenure iterations, and tabu moves are still taken when they
// beat the global best (aspiration).
type Tabu struct {
	// Tenure is the number of iterations a reversed move stays
	// forbidden; zero selects 2*Dim. Samples is the number of random
	// single-parameter moves examined per iteration; zero selects 4*Dim.
	Tenure, Samples int
}

// Name implements Strategy.
func (Tabu) Name() string { return "tabu" }

// Minimize implements Strategy.
func (t Tabu) Minimize(p Problem, opt Options) (Result, error) {
	return minimizeHeuristic("tabu", p, opt, t.search)
}

func (t Tabu) search(p Spaced, c *counter, rng *rand.Rand) (Result, error) {
	tenure := t.Tenure
	if tenure <= 0 {
		tenure = 2 * p.Dim()
	}
	samples := t.Samples
	if samples <= 0 {
		samples = 4 * p.Dim()
	}

	cur := make([]int, p.Dim())
	cand := make([]int, p.Dim())
	best := make([]int, p.Dim())
	p.Initial(cur, rng)
	curE, _ := c.eval(cur)
	bestE := curE
	copy(best, cur)

	// A space without a two-level dimension has no moves: its one state
	// is already evaluated, and sampling moves would never spend budget.
	movable := false
	for i := 0; i < p.Dim(); i++ {
		movable = movable || p.Levels(i) >= 2
	}
	if !movable {
		return c.result(best, bestE)
	}

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
	return c.result(best, bestE)
}

// Genetic is a generational genetic algorithm with tournament
// selection, uniform crossover, per-gene mutation and elitism.
type Genetic struct {
	// Population is the number of individuals; zero selects 24.
	Population int
	// MutationRate is the per-gene mutation probability; zero selects
	// 1/Dim.
	MutationRate float64
	// Elite is the number of best individuals copied unchanged into the
	// next generation; zero selects 2.
	Elite int
}

// Name implements Strategy.
func (Genetic) Name() string { return "genetic" }

// Minimize implements Strategy.
func (g Genetic) Minimize(p Problem, opt Options) (Result, error) {
	return minimizeHeuristic("genetic", p, opt, g.search)
}

func (ga Genetic) search(p Spaced, c *counter, rng *rand.Rand) (Result, error) {
	pop := ga.Population
	if pop <= 0 {
		pop = 24
	}
	if pop < 2 {
		return Result{}, fmt.Errorf("strategy: genetic: population must be at least 2, got %d", pop)
	}
	mut := ga.MutationRate
	if mut == 0 {
		mut = 1 / float64(p.Dim())
	}
	if mut < 0 || mut > 1 {
		return Result{}, fmt.Errorf("strategy: genetic: mutation rate %g outside [0,1]", mut)
	}
	elite := ga.Elite
	if elite == 0 {
		elite = 2
	}
	if elite < 0 || elite >= pop {
		return Result{}, fmt.Errorf("strategy: genetic: elite count %d outside [0,%d)", elite, pop)
	}

	type indiv struct {
		genes  []int
		energy float64
	}
	population := make([]indiv, pop)
	for i := range population {
		g := make([]int, p.Dim())
		if i == 0 {
			p.Initial(g, rng)
		} else {
			randomState(p, g, rng)
		}
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
	return c.result(best, bestE)
}
