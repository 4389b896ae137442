package ml

import (
	"fmt"
	"slices"
)

// Normalizer rescales features to [0,1] per column (min-max scaling), the
// "Normalize Data" stage of the paper's Figure 4 training pipeline. The
// scaler is fitted on training data and then applied to unseen samples;
// constant columns map to 0.
type Normalizer struct {
	Min, Max []float64
}

// FitNormalizer learns per-column ranges from the dataset.
func FitNormalizer(d *Dataset) (*Normalizer, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	dim := d.Dim()
	n := &Normalizer{Min: make([]float64, dim), Max: make([]float64, dim)}
	for j := 0; j < dim; j++ {
		n.Min[j] = d.X[0][j]
		n.Max[j] = d.X[0][j]
	}
	for _, row := range d.X {
		for j, v := range row {
			if v < n.Min[j] {
				n.Min[j] = v
			}
			if v > n.Max[j] {
				n.Max[j] = v
			}
		}
	}
	return n, nil
}

// Apply rescales one sample into a fresh slice.
func (n *Normalizer) Apply(x []float64) ([]float64, error) {
	out := slices.Clone(x)
	if err := n.ApplyInPlace(out); err != nil {
		return nil, err
	}
	return out, nil
}

// ApplyInPlace rescales one sample in place, with Apply's arithmetic.
func (n *Normalizer) ApplyInPlace(x []float64) error {
	if len(x) != len(n.Min) {
		return fmt.Errorf("ml: normalizer fitted on %d features, got %d", len(n.Min), len(x))
	}
	for j, v := range x {
		span := n.Max[j] - n.Min[j]
		if span == 0 {
			x[j] = 0
			continue
		}
		x[j] = (v - n.Min[j]) / span
	}
	return nil
}

// ApplyDataset rescales every row into a new dataset (targets shared).
func (n *Normalizer) ApplyDataset(d *Dataset) (*Dataset, error) {
	out := &Dataset{FeatureNames: d.FeatureNames, Y: d.Y}
	for i, row := range d.X {
		nx, err := n.Apply(row)
		if err != nil {
			return nil, fmt.Errorf("ml: row %d: %w", i, err)
		}
		out.X = append(out.X, nx)
	}
	return out, nil
}
