package experiments

import (
	"fmt"

	"hetopt/internal/core"
	"hetopt/internal/offload"
	"hetopt/internal/tables"
)

// AdaptiveRow compares one genome's SAML suggestion before and after
// measured refinement, against the EM optimum.
type AdaptiveRow struct {
	Genome string
	// SAMLE and RefinedE are measured objectives; EME the enumerated
	// optimum.
	SAMLE, RefinedE, EME float64
	// SAMLPd and RefinedPd are percent differences to EM.
	SAMLPd, RefinedPd float64
	// Experiments counts real measurements of the adaptive pipeline
	// (SAML's final check + refinement budget actually used).
	Experiments int
}

// ExtAdaptive runs the future-work experiment: SAML alone versus SAML
// plus measured local refinement, per genome.
func (s *Suite) ExtAdaptive(iterations, refineBudget int) ([]AdaptiveRow, error) {
	var rows []AdaptiveRow
	for _, w := range s.Plan.Workloads {
		inst, err := s.instance(w)
		if err != nil {
			return nil, err
		}
		em, err := core.Run(core.EM, inst, s.coreOpts(0, 0))
		if err != nil {
			return nil, err
		}
		var samlSum, refinedSum float64
		experiments := 0
		for r := 0; r < s.repeats(); r++ {
			inst.Measurer.ResetCount()
			saml, refined, err := core.TuneAndRefine(inst,
				s.coreOpts(iterations, s.Seed+int64(r)+genomeSeed(w.Name)),
				core.Options{Iterations: refineBudget, Parallelism: s.Parallelism})
			if err != nil {
				return nil, fmt.Errorf("experiments: adaptive on %s: %w", w.Name, err)
			}
			samlSum += saml.MeasuredE()
			refinedSum += refined.MeasuredE()
			experiments += inst.Measurer.Count()
		}
		samlMean := samlSum / float64(s.repeats())
		refinedMean := refinedSum / float64(s.repeats())
		rows = append(rows, AdaptiveRow{
			Genome:      w.Name,
			SAMLE:       samlMean,
			RefinedE:    refinedMean,
			EME:         em.MeasuredE(),
			SAMLPd:      100 * (samlMean - em.MeasuredE()) / em.MeasuredE(),
			RefinedPd:   100 * (refinedMean - em.MeasuredE()) / em.MeasuredE(),
			Experiments: experiments / s.repeats(),
		})
	}
	return rows, nil
}

// RenderAdaptive formats the adaptive-refinement comparison.
func RenderAdaptive(rows []AdaptiveRow, iterations, budget int) string {
	tb := tables.New(fmt.Sprintf("Extension: adaptive refinement (SAML %d iters + <=%d measured refinements; paper future work)",
		iterations, budget),
		"DNA", "SAML E [s]", "pd vs EM", "refined E [s]", "pd vs EM", "experiments", "EM E [s]")
	for _, r := range rows {
		tb.AddRow(r.Genome,
			tables.F(r.SAMLE, 4), tables.Percent(r.SAMLPd),
			tables.F(r.RefinedE, 4), tables.Percent(r.RefinedPd),
			fmt.Sprint(r.Experiments), tables.F(r.EME, 4))
	}
	return tb.String()
}

// SizeSweepRow records the tuned distribution for one input size.
type SizeSweepRow struct {
	SizeMB       float64
	HostFraction float64
	E            float64
	CPUOnly      bool
}

// ExtSizeSweep tunes the distribution across input sizes, quantifying the
// paper's observation that "the optimal workload distribution depends on
// the input size": small inputs stay CPU-only, large ones split. Tuning
// uses EML — once the models are trained, enumerating predictions is
// nearly free (the per-side inputs memoize), deterministic, and exactly
// the "prediction" capability Table II credits the ML-based methods with.
func (s *Suite) ExtSizeSweep(ref offload.Workload, sizesMB []float64) ([]SizeSweepRow, error) {
	if len(sizesMB) == 0 {
		return nil, fmt.Errorf("experiments: no sizes to sweep")
	}
	models, err := s.Models()
	if err != nil {
		return nil, err
	}
	var rows []SizeSweepRow
	for _, size := range sizesMB {
		w := ref.Scaled(size)
		pred, err := core.NewPredictor(models, w, s.Platform.Model())
		if err != nil {
			return nil, err
		}
		inst := &core.Instance{
			Schema:    s.Schema,
			Measurer:  core.NewMeasurer(s.Platform, w),
			Predictor: pred,
		}
		res, err := core.Run(core.EML, inst, s.coreOpts(0, 0))
		if err != nil {
			return nil, err
		}
		rows = append(rows, SizeSweepRow{
			SizeMB:       size,
			HostFraction: res.Config.HostFraction,
			E:            res.MeasuredE(),
			CPUOnly:      res.Config.HostFraction == 100,
		})
	}
	return rows, nil
}

// RenderSizeSweep formats the size sweep.
func RenderSizeSweep(rows []SizeSweepRow, ref offload.Workload) string {
	tb := tables.New(fmt.Sprintf("Extension: tuned distribution vs input size (%s composition)", ref.Name),
		"size [MB]", "host fraction", "E [s]", "mode")
	for _, r := range rows {
		mode := "split"
		if r.CPUOnly {
			mode = "CPU only"
		} else if r.HostFraction == 0 {
			mode = "device only"
		}
		tb.AddRow(tables.F(r.SizeMB, 0), tables.F(r.HostFraction, 1)+"%", tables.F(r.E, 4), mode)
	}
	return tb.String()
}
