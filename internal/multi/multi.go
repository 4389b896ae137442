// Package multi tunes work distribution over a host plus K accelerator
// cards. The paper evaluates one Xeon Phi but motivates the problem with
// nodes carrying up to eight accelerators (Section II-A; Tianhe-2 nodes
// carry three Phis), and the configuration-space formulation
// (Equation 1) generalizes: a fraction vector over host + K cards
// summing to 100%, scored by the generalized objectives (time = max over
// all processing units, energy = joules summed over engaged units, plus
// the weighted and time-bounded trade-offs from internal/core). The
// platform model, the split and its measurement live in offload
// (offload.Platform.WithCards, offload.Split); this package keeps only
// the search problem over the fraction simplex.
package multi

import (
	"fmt"
	"math/rand"

	"hetopt/internal/core"
	"hetopt/internal/offload"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

const (
	// fractionUnits is the simplex resolution: 40 units of 2.5%, the
	// paper's fraction grid.
	fractionUnits = 40
	// measureTrial is the measurement noise draw every evaluation uses.
	measureTrial = 0
)

// Problem is the multi-device tuning problem. Its state couples the
// fraction coordinates on a simplex, so it is a strategy.Problem but
// not strategy.Spaced: only Initial/Neighbor-driven strategies
// (annealing, or a portfolio of them) can tune it.
//
// State layout: [hostThreadIdx, hostAffIdx,
// (cardThreadIdx, cardAffIdx) x K, unit_0 ... unit_K] where unit_i counts
// fortieths of the workload on unit i (index 0 = host) and the unit
// counts are kept on the simplex by the neighbor move (shifting one unit
// between two random processors).
type Problem struct {
	// Platform is the host plus K cards, e.g. from
	// offload.Platform.WithCards.
	Platform *offload.Platform
	// Schema supplies the host and card thread and affinity levels
	// (every card shares the device levels); its fraction grid is
	// unused, the simplex has its own.
	Schema *space.Schema
	// Workload is the divisible input to distribute.
	Workload offload.Workload
	// Objective selects what tuning minimizes: nil or core.TimeObjective
	// is the generalized makespan (max over units), core.EnergyObjective
	// the total joules over engaged units, and the weighted/bounded
	// objectives trade the two.
	Objective core.Objective
}

// Validate checks the problem definition.
func (p *Problem) Validate() error {
	if p.Platform == nil {
		return fmt.Errorf("multi: problem needs a platform")
	}
	if p.Schema == nil {
		return fmt.Errorf("multi: problem needs a schema")
	}
	return p.Workload.Validate()
}

// layout helpers.
func (p *Problem) numCards() int { return p.Platform.NumCards() }
func (p *Problem) unitBase() int { return 2 + 2*p.numCards() }

// levels returns the level count of one schema parameter
// (space.ParamHostThreads .. space.ParamDeviceAffinity).
func (p *Problem) levels(param int) int { return p.Schema.Space().Params[param].Levels() }

// Dim returns the state-vector length.
func (p *Problem) Dim() int { return p.unitBase() + p.numCards() + 1 }

// Initial writes a random starting state: random parameters and a
// random composition of the fraction units.
func (p *Problem) Initial(dst []int, rng *rand.Rand) {
	dst[0] = rng.Intn(p.levels(space.ParamHostThreads))
	dst[1] = rng.Intn(p.levels(space.ParamHostAffinity))
	for d := 0; d < p.numCards(); d++ {
		dst[2+2*d] = rng.Intn(p.levels(space.ParamDeviceThreads))
		dst[3+2*d] = rng.Intn(p.levels(space.ParamDeviceAffinity))
	}
	// Random composition: drop each unit into a uniformly random bin.
	base := p.unitBase()
	for i := 0; i <= p.numCards(); i++ {
		dst[base+i] = 0
	}
	for u := 0; u < fractionUnits; u++ {
		dst[base+rng.Intn(p.numCards()+1)]++
	}
}

// Neighbor writes a neighbor of src into dst: half the moves perturb
// one thread/affinity parameter, half shift one fraction unit between
// two processors (keeping the composition on the simplex).
func (p *Problem) Neighbor(dst, src []int, rng *rand.Rand) {
	copy(dst, src)
	base := p.unitBase()
	if rng.Intn(2) == 0 {
		// Parameter move. Positions 0 and 1 are the host's parameters;
		// every card pair maps onto the device parameters.
		which := rng.Intn(base)
		param := which
		if which >= 2 {
			param = space.ParamDeviceThreads + which%2
		}
		if levels := p.levels(param); levels > 1 {
			nv := rng.Intn(levels - 1)
			if nv >= dst[which] {
				nv++
			}
			dst[which] = nv
		}
		return
	}
	// Fraction move: one unit from a non-empty bin to another bin.
	n := p.numCards() + 1
	from := rng.Intn(n)
	for tries := 0; dst[base+from] == 0 && tries < 2*n; tries++ {
		from = rng.Intn(n)
	}
	if dst[base+from] == 0 {
		return
	}
	to := rng.Intn(n - 1)
	if to >= from {
		to++
	}
	dst[base+from]--
	dst[base+to]++
}

// Decode converts a state vector into a typed split. Each card's
// parameters decode through the schema's device view.
func (p *Problem) Decode(state []int) (offload.Split, error) {
	if len(state) != p.Dim() {
		return offload.Split{}, fmt.Errorf("multi: state has %d entries, want %d", len(state), p.Dim())
	}
	base := p.unitBase()
	const unitPct = 100 / float64(fractionUnits)
	s := offload.Split{Cards: make([]offload.Share, p.numCards())}
	for d := range s.Cards {
		// Each card's view also carries the host's parameters.
		cfg, err := p.Schema.Config([]int{state[0], state[1], state[2+2*d], state[3+2*d], 0})
		if err != nil {
			return offload.Split{}, err
		}
		s.Host = offload.Share{Threads: cfg.HostThreads, Affinity: cfg.HostAffinity, FractionPct: float64(state[base]) * unitPct}
		s.Cards[d] = offload.Share{Threads: cfg.DeviceThreads, Affinity: cfg.DeviceAffinity, FractionPct: float64(state[base+1+d]) * unitPct}
	}
	return s, nil
}

// objective returns the problem's objective, defaulting to the
// generalized makespan.
func (p *Problem) objective() core.Objective {
	if p.Objective == nil {
		return core.TimeObjective{}
	}
	return p.Objective
}

// Energy implements strategy.Problem by measuring the decoded split and
// scoring it under the problem's objective. Measurement is a pure
// function of the state, so the strategy layer's shared memo (installed
// for multi-worker runs) never changes a value, only the physical
// effort spent.
func (p *Problem) Energy(state []int) (float64, error) {
	s, err := p.Decode(state)
	if err != nil {
		return 0, err
	}
	m, err := p.Platform.MeasureSplit(p.Workload, s, measureTrial)
	if err != nil {
		return 0, err
	}
	return p.objective().Value(m.E(), m.Joules()), nil
}

// Result is the outcome of a multi-device tuning run: the best split
// and its final measurement (per-unit times and energies, host first).
type Result struct {
	Split offload.Split
	offload.SplitMeasurement
	// Objective names the objective tuning minimized and ObjectiveValue
	// is its value on the final measurement.
	Objective      string
	ObjectiveValue float64
	// Iterations counts search steps beyond each worker's initialization
	// (annealing candidates summed over chains; for another strategy,
	// its evaluation total minus one initial evaluation per worker).
	Iterations int
	// Chain is the index of the winning search worker (the annealing
	// chain for the default strategy; 0 for single-worker runs).
	Chain int
}

// Tune runs strat over the simplex and returns the best split with its
// measurement; nil strat is the paper's annealing, strategy.Anneal{}.
// The simplex couples its fraction coordinates, so only
// Initial/Neighbor-driven strategies apply (Anneal, or a Portfolio of
// such members); product-space strategies fail with an error. opt
// carries the per-worker budget, seed, worker count and parallelism;
// the result is bit-identical at every opt.Parallelism.
func Tune(p *Problem, strat strategy.Strategy, opt strategy.Options) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if strat == nil {
		strat = strategy.Anneal{}
	}
	res, err := strat.Minimize(p, opt)
	if err != nil {
		return Result{}, err
	}
	s, err := p.Decode(res.Best)
	if err != nil {
		return Result{}, err
	}
	m, err := p.Platform.MeasureSplit(p.Workload, s, measureTrial)
	if err != nil {
		return Result{}, err
	}
	obj := p.objective()
	return Result{
		Split:            s,
		SplitMeasurement: m,
		Objective:        obj.Name(),
		ObjectiveValue:   obj.Value(m.E(), m.Joules()),
		Iterations:       res.Evaluations - res.Workers,
		Chain:            res.Worker,
	}, nil
}

// PaperProblem builds the multi-device tuning problem over the paper's
// value sets (space.PaperSchema) for its host with n Phi cards.
func PaperProblem(n int, w offload.Workload) (*Problem, error) {
	platform, err := offload.NewPlatform().WithCards(n)
	if err != nil {
		return nil, err
	}
	return &Problem{Platform: platform, Schema: space.PaperSchema(), Workload: w}, nil
}
