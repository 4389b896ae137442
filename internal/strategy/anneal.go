package strategy

import (
	"fmt"
	"math"
	"math/rand"
)

// DefaultInitialTemp is the SA starting temperature for seconds-scale
// energies. The paper anneals from 10^4 down to 1; the objective here is
// measured in seconds (0.1-40) rather than the milliseconds-scale
// numbers that schedule implies, so the same 10^4 dynamic range is
// anchored at 5.
const DefaultInitialTemp = 5.0

// TempSpan is the ratio between initial and stop temperature (10^4, the
// paper's 10000 -> "T < 1" span).
const TempSpan = 1e4

// Anneal is simulated annealing exactly as the paper describes it
// (Section III-A and Figure 3):
//
//   - the annealing schedule is T = T * (1 - coolingRate) (Equation 3),
//     with the rate derived so the schedule spans exactly the budget;
//   - a proposed solution with energy E' is accepted unconditionally
//     when E' < E, and otherwise with probability p = exp((E - E') / T)
//     (Equation 4);
//   - a chain stops when T drops below the stop temperature ("T < 1" in
//     Figure 3) or when its budget of candidates is spent;
//   - the best solution seen so far is tracked alongside the current one
//     ("update current and best solution").
//
// K independent chains (Options.Restarts) anneal with ChainSeed-derived
// seeds, sharing a single-flight evaluation memo when K > 1 so a state
// visited by several chains costs one evaluation; the best chain wins,
// ties broken by the lowest chain index. A single chain runs without
// the memo. It works on any Problem (Spaced not required).
type Anneal struct {
	// InitialTemp is the starting temperature; zero selects
	// DefaultInitialTemp.
	InitialTemp float64
	// StopTemp stops a chain once T drops below it; zero selects
	// InitialTemp/TempSpan, preserving the paper's schedule shape.
	StopTemp float64
	// OnStep, when non-nil, observes every iteration of chain 0.
	OnStep func(Step)
}

// Step describes one annealing iteration for observers.
type Step struct {
	// Iter counts iterations from 0.
	Iter int
	// Temp is the temperature when the step was evaluated.
	Temp float64
	// Candidate is the proposed energy E'; Current and Best are the
	// energies after the acceptance decision.
	Candidate, Current, Best float64
	// Accepted reports whether the candidate replaced the current
	// solution; Worse additionally reports that it was an uphill
	// (worse-energy) acceptance.
	Accepted, Worse bool
}

// DefaultAnneal is the paper-preset annealing strategy.
func DefaultAnneal() Anneal { return Anneal{} }

// Name implements Strategy.
func (Anneal) Name() string { return "anneal" }

// CoolingRateFor returns the cooling rate at which the schedule
// T = T*(1-rate) decays from initialTemp to stopTemp in exactly iters
// iterations. It returns an error for non-positive arguments or
// stopTemp >= initialTemp.
func CoolingRateFor(iters int, initialTemp, stopTemp float64) (float64, error) {
	if iters <= 0 {
		return 0, fmt.Errorf("strategy: anneal: iteration count must be positive, got %d", iters)
	}
	if initialTemp <= 0 || stopTemp <= 0 {
		return 0, fmt.Errorf("strategy: anneal: temperatures must be positive (initial %g, stop %g)", initialTemp, stopTemp)
	}
	if stopTemp >= initialTemp {
		return 0, fmt.Errorf("strategy: anneal: stop temperature %g must be below initial %g", stopTemp, initialTemp)
	}
	return 1 - math.Pow(stopTemp/initialTemp, 1/float64(iters)), nil
}

// Minimize implements Strategy.
func (a Anneal) Minimize(p Problem, opt Options) (Result, error) {
	if p.Dim() <= 0 {
		return Result{}, fmt.Errorf("strategy: anneal: problem dimension must be positive")
	}
	t0 := a.InitialTemp
	if t0 == 0 {
		t0 = DefaultInitialTemp
	}
	stop := a.StopTemp
	if stop == 0 {
		stop = t0 / TempSpan
	}
	iters := opt.budget()
	rate, err := CoolingRateFor(iters, t0, stop)
	if err != nil {
		return Result{}, err
	}
	return fanOut(p, opt, func(p Problem, chain int, seed int64) (Result, error) {
		var onStep func(Step)
		if chain == 0 {
			onStep = a.OnStep
		}
		return annealChain(p, t0, stop, rate, iters, seed, onStep)
	})
}

// annealChain runs one chain of at most iters candidates. Its
// Evaluations count the initial state plus every candidate. It returns
// on the first Energy error.
func annealChain(p Problem, t0, stop, rate float64, iters int, seed int64, onStep func(Step)) (Result, error) {
	rng := rand.New(rand.NewSource(seed))
	cur := make([]int, p.Dim())
	p.Initial(cur, rng)
	curE, err := p.Energy(cur)
	if err != nil {
		return Result{}, err
	}
	curE = sanitize(curE)

	best := append([]int(nil), cur...)
	bestE := curE

	cand := make([]int, p.Dim())
	temp := t0
	iter := 0
	for ; temp >= stop && iter < iters; iter++ {
		p.Neighbor(cand, cur, rng)
		candE, err := p.Energy(cand)
		if err != nil {
			return Result{}, err
		}
		candE = sanitize(candE)

		accepted := false
		worse := false
		if candE < curE {
			accepted = true
		} else if temp > 0 && !math.IsInf(candE, 1) {
			// Equation 4: p = exp((E - E')/T).
			if math.Exp((curE-candE)/temp) > rng.Float64() {
				accepted = true
				worse = candE > curE
			}
		}
		if accepted {
			copy(cur, cand)
			curE = candE
			if curE < bestE {
				bestE = curE
				copy(best, cur)
			}
		}
		if onStep != nil {
			onStep(Step{
				Iter:      iter,
				Temp:      temp,
				Candidate: candE,
				Current:   curE,
				Best:      bestE,
				Accepted:  accepted,
				Worse:     worse,
			})
		}
		temp *= 1 - rate // Equation 3.
	}
	return Result{Best: best, BestEnergy: bestE, Evaluations: iter + 1}, nil
}
