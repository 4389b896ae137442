package experiments

import (
	"fmt"

	"hetopt/internal/core"
	"hetopt/internal/offload"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
	"hetopt/internal/tables"
)

// HeuristicResult is one row of the explorer comparison.
type HeuristicResult struct {
	// Name of the search heuristic.
	Name string
	// MeanMeasuredE is the measured objective of the suggested
	// configuration, averaged over Suite.Repeats seeds.
	MeanMeasuredE float64
	// PercentVsEM is the gap to the enumerated optimum.
	PercentVsEM float64
}

// HeuristicComparison is the extension experiment behind the paper's
// Section III-A discussion: all candidate metaheuristics explore the same
// configuration space with ML evaluation under an equal budget, and their
// suggestions are measured for fair comparison. Simulated annealing (the
// paper's choice) is included via the regular SAML path.
func (s *Suite) HeuristicComparison(w offload.Workload, budget int) ([]HeuristicResult, float64, error) {
	inst, err := s.instance(w)
	if err != nil {
		return nil, 0, err
	}
	em, err := core.Run(core.EM, inst, s.coreOpts(0, 0))
	if err != nil {
		return nil, 0, err
	}

	measureBest := func(best []int) (float64, error) {
		cfg, err := inst.Schema.Config(best)
		if err != nil {
			return 0, err
		}
		t, err := inst.Measurer.Evaluate(cfg)
		if err != nil {
			return 0, err
		}
		return t.E(), nil
	}

	type searcher struct {
		name string
		run  func(seed int64) ([]int, error)
	}
	problem := core.NewSearchProblem(inst.Schema, inst.Predictor, nil, space.StepMove)
	heuristic := func(st strategy.Strategy) func(seed int64) ([]int, error) {
		return func(seed int64) ([]int, error) {
			res, err := st.Minimize(problem, strategy.Options{Budget: budget, Seed: seed})
			return res.Best, err
		}
	}
	searchers := []searcher{
		{"simulated-annealing", func(seed int64) ([]int, error) {
			res, err := core.Run(core.SAML, inst, s.coreOpts(budget, seed))
			if err != nil {
				return nil, err
			}
			return inst.Schema.Index(res.Config)
		}},
		{"tabu-search", heuristic(strategy.Tabu{})},
		{"local-search", heuristic(strategy.Local{})},
		{"genetic-algorithm", heuristic(strategy.Genetic{})},
		{"random-search", heuristic(strategy.Random{})},
	}

	var out []HeuristicResult
	for _, sr := range searchers {
		sum := 0.0
		for r := 0; r < s.repeats(); r++ {
			best, err := sr.run(s.Seed + int64(r))
			if err != nil {
				return nil, 0, fmt.Errorf("experiments: %s: %w", sr.name, err)
			}
			e, err := measureBest(best)
			if err != nil {
				return nil, 0, err
			}
			sum += e
		}
		mean := sum / float64(s.repeats())
		out = append(out, HeuristicResult{
			Name:          sr.name,
			MeanMeasuredE: mean,
			PercentVsEM:   100 * (mean - em.MeasuredE()) / em.MeasuredE(),
		})
	}
	return out, em.MeasuredE(), nil
}

// RenderHeuristicComparison formats the explorer comparison.
func RenderHeuristicComparison(rows []HeuristicResult, emE float64, w offload.Workload, budget, repeats int) string {
	tb := tables.New(fmt.Sprintf("Extension: metaheuristic comparison (genome %s, budget %d evaluations, %d seeds, EM optimum %.4f s)",
		w.Name, budget, repeats, emE),
		"heuristic", "mean measured E [s]", "pct diff vs EM")
	for _, r := range rows {
		tb.AddRow(r.Name, tables.F(r.MeanMeasuredE, 4), tables.Percent(r.PercentVsEM))
	}
	return tb.String()
}
