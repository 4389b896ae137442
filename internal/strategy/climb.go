package strategy

import (
	"fmt"
	"math/rand"

	"hetopt/internal/search"
)

// Climb is steepest-descent hill climbing from the problem's Initial
// state, the measured refinement the paper's future work calls for
// ("adaptive workload-aware approaches"): each round evaluates the
// one-step neighbourhood of the incumbent and moves to its best strict
// improvement, earliest move winning a tie. An ordered dimension steps
// one level down and one level up; every other dimension tries each of
// its other levels in ascending order. The climb stops at a local
// optimum or when Options.Budget evaluations, the start state included,
// are spent. It requires Spaced.
//
// Climb is one deterministic worker: Options.Seed only seeds the
// Initial draw, and Options.Restarts is ignored, because every restart
// would retrace the same climb. Options.Parallelism scans a round's
// neighbourhood concurrently, but only when the remaining budget covers
// the whole neighbourhood, so the evaluations spent and the Result are
// the same at every Parallelism.
type Climb struct {
	// Ordered marks the dimensions whose levels are ordered. Nil treats
	// every dimension as unordered; otherwise its length must be the
	// problem's Dim. It is data rather than a problem method, so a
	// memo or other wrapper around the problem cannot hide it.
	Ordered []bool
	// OnMove, when non-nil, observes every move: the number of moves
	// taken so far (1 for the first) and the new incumbent's energy.
	OnMove func(moves int, energy float64)
}

// Name implements Strategy.
func (Climb) Name() string { return "climb" }

// move sets dimension dim to level.
type move struct{ dim, level int }

// Minimize implements Strategy.
func (c Climb) Minimize(p Problem, opt Options) (Result, error) {
	sp, err := spacedOrErr("climb", p)
	if err != nil {
		return Result{}, err
	}
	dim := sp.Dim()
	if dim <= 0 {
		return Result{}, fmt.Errorf("strategy: climb: problem dimension must be positive")
	}
	if c.Ordered != nil && len(c.Ordered) != dim {
		return Result{}, fmt.Errorf("strategy: climb: %d ordered flags for %d dimensions", len(c.Ordered), dim)
	}
	budget := opt.budget()
	cur := make([]int, dim)
	sp.Initial(cur, rand.New(rand.NewSource(search.ChainSeed(opt.Seed, 0))))
	curE, err := sp.Energy(cur)
	if err != nil {
		return Result{}, err
	}
	curE = sanitize(curE)
	used := 1

	var moves []move
	for taken := 0; used < budget; {
		// Scan the round's first n moves; only a round the budget covers
		// whole fans out over the workers.
		moves = c.neighbourhood(sp, cur, moves[:0])
		n, workers := len(moves), opt.Parallelism
		if rest := budget - used; n > rest {
			n, workers = rest, 1
		}
		states := make([]int, n*dim)
		energies := make([]float64, n)
		err := search.ForEach(n, workers, func(i int) error {
			st := states[i*dim : (i+1)*dim]
			copy(st, cur)
			st[moves[i].dim] = moves[i].level
			e, err := sp.Energy(st)
			energies[i] = sanitize(e)
			return err
		})
		if err != nil {
			return Result{}, err
		}
		used += n
		best, bestE := -1, curE
		for i, e := range energies {
			if e < bestE {
				best, bestE = i, e
			}
		}
		if best < 0 {
			break // local optimum
		}
		cur[moves[best].dim] = moves[best].level
		curE = bestE
		taken++
		if c.OnMove != nil {
			c.OnMove(taken, curE)
		}
	}
	return Result{Best: cur, BestEnergy: curE, Evaluations: used, Workers: 1}, nil
}

// neighbourhood appends the one-step moves from cur to dst in scan
// order: dimension by dimension, ordered ones down then up.
func (c Climb) neighbourhood(p Spaced, cur []int, dst []move) []move {
	for d, v := range cur {
		if c.Ordered != nil && c.Ordered[d] {
			if v > 0 {
				dst = append(dst, move{d, v - 1})
			}
			if v < p.Levels(d)-1 {
				dst = append(dst, move{d, v + 1})
			}
			continue
		}
		for l := 0; l < p.Levels(d); l++ {
			if l != v {
				dst = append(dst, move{d, l})
			}
		}
	}
	return dst
}
