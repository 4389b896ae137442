package core

import (
	"fmt"

	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// refineBudget is the measurement budget of a refinement whose Options
// leave Iterations zero.
const refineBudget = 48

// Refine improves seed under real measurements, the paper's stated
// future work ("adaptive workload-aware approaches"): SAML's residual
// gap to the EM optimum comes from prediction error, so a few dozen
// experiments spent around its suggestion close most of that gap at a
// tiny fraction of EM's effort.
//
// Refine runs opt.Strategy (nil selects the schema's hill climb,
// strategy.Climb with the schema's ordered parameters) over the
// measured search problem, with every worker starting at seed and
// every measurement going through the instance's evaluator like any
// other run. Iterations is the per-worker measurement budget (zero
// selects 48); for the climb it caps the whole refinement, seed
// included.
//
// The result is never worse than the seed, because every worker
// evaluates the seed first. Experiments counts every measurement the
// search paid, re-measurements included when the strategy runs
// without a memo (the climb, or one worker); no fair-comparison
// measurement is added, since the winner was measured during the
// search. Method is SAM: the search ran on measurements, whatever
// strategy explored. Exhaustive and Exact are rejected: they enumerate
// the space instead of refining around the seed (run EM, or SAM with
// the Exact strategy).
func Refine(inst *Instance, seed space.Config, opt Options) (Result, error) {
	if err := inst.Validate(SAM); err != nil {
		return Result{}, err
	}
	start, err := inst.Schema.Index(seed)
	if err != nil {
		return Result{}, fmt.Errorf("core: refinement seed: %w", err)
	}
	if opt.Strategy == nil {
		opt.Strategy = climbFor(inst.Schema)
	} else if enumerates(opt.Strategy) {
		return Result{}, fmt.Errorf("core: %s enumerates the space instead of refining the seed; run EM or SAM instead", opt.Strategy.Name())
	}
	if opt.Iterations <= 0 {
		opt.Iterations = refineBudget
	}
	return run(SAM, inst, opt, start)
}

// TuneAndRefine is the adaptive workload-aware pipeline: SAML proposes a
// configuration from predictions (one real experiment), then Refine
// spends refineOpt's measurement budget improving it. When refineOpt
// leaves Objective nil, refinement inherits samlOpt's, so both stages
// minimize the same quantity.
func TuneAndRefine(inst *Instance, samlOpt, refineOpt Options) (saml, refined Result, err error) {
	saml, err = Run(SAML, inst, samlOpt)
	if err != nil {
		return Result{}, Result{}, err
	}
	if refineOpt.Objective == nil {
		refineOpt.Objective = samlOpt.Objective
	}
	refined, err = Refine(inst, saml.Config, refineOpt)
	if err != nil {
		return Result{}, Result{}, err
	}
	return saml, refined, nil
}

// climbFor is the hill climb over schema that Refine runs by default:
// ordered parameters step one level, categorical ones try every
// alternative.
func climbFor(schema *space.Schema) strategy.Climb {
	params := schema.Space().Params
	ordered := make([]bool, len(params))
	for i := range params {
		ordered[i] = params[i].Kind == space.Ordered
	}
	return strategy.Climb{Ordered: ordered}
}

// enumerates reports whether s is Exhaustive or Exact (by value or
// pointer), or a portfolio listing one, however nested.
func enumerates(s strategy.Strategy) bool {
	var members []strategy.Strategy
	switch t := s.(type) {
	case strategy.Exhaustive, *strategy.Exhaustive, strategy.Exact, *strategy.Exact:
		return true
	case strategy.Portfolio:
		members = t.Members
	case *strategy.Portfolio:
		members = t.Members
	}
	for _, m := range members {
		if enumerates(m) {
			return true
		}
	}
	return false
}
