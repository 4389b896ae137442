package ml

import (
	"fmt"
	"math/rand"
)

// Regressor is a fitted model predicting a scalar from a feature vector.
type Regressor interface {
	Predict(x []float64) float64
}

// BoostOptions configures Boosted Decision Tree Regression (least-squares
// gradient boosting of CART trees, the algorithm of Section III-B).
type BoostOptions struct {
	// Rounds is the number of boosting stages (trees). Zero selects 300.
	Rounds int
	// LearningRate is the shrinkage nu applied to every tree. Zero
	// selects 0.1.
	LearningRate float64
	// Tree configures the base learners. Zero values select depth 5 /
	// min-leaf 5 (boosting prefers slightly stronger leaves than a lone
	// CART).
	Tree TreeOptions
	// Subsample is the per-round row-sampling fraction (stochastic
	// gradient boosting). Zero selects 0.8; 1 disables subsampling.
	Subsample float64
	// Seed drives subsampling.
	Seed int64
}

func (o BoostOptions) withDefaults() BoostOptions {
	if o.Rounds == 0 {
		o.Rounds = 300
	}
	if o.LearningRate == 0 {
		o.LearningRate = 0.1
	}
	if o.Tree.MaxDepth == 0 {
		o.Tree.MaxDepth = 5
	}
	if o.Tree.MinLeaf == 0 {
		o.Tree.MinLeaf = 5
	}
	if o.Subsample == 0 {
		o.Subsample = 0.8
	}
	return o
}

// BoostedTrees is a fitted boosted regression-tree ensemble, held in the
// compiled complete-tree layout of layout.go.
type BoostedTrees struct {
	base         float64
	learningRate float64
	// depth is D: every tree is stored as a complete binary tree of
	// depth D in heap order (node k has children 2k+1 and 2k+2), so tree
	// t owns feat/thr[t*inner:(t+1)*inner] and
	// leaves[t*(inner+1):(t+1)*(inner+1)] with inner = 2^D-1.
	depth  int
	ntrees int
	feat   []uint8
	thr    []float64
	leaves []float64
	// real marks the inner slots holding a fitted split; the rest are
	// leaf padding (a fitted split may itself sit at +Inf when features
	// hold NaN, so the threshold alone cannot tell them apart).
	// splitMeans holds those splits' node means, tree by tree in
	// preorder. Predict reads neither; Save needs both to write the
	// fitted trees back in the persisted format.
	real       []uint64
	splitMeans []float64
	// TrainLoss records the mean squared error on the training set after
	// every round (diagnostics and convergence tests).
	TrainLoss []float64
}

// NumTrees returns the number of boosting stages fitted.
func (b *BoostedTrees) NumTrees() int { return b.ntrees }

// FitBoostedTrees trains Boosted Decision Tree Regression on d with
// least-squares loss:
//
//	F_0(x)   = mean(y)
//	r_i      = y_i - F_{m-1}(x_i)            (negative gradient)
//	F_m(x)   = F_{m-1}(x) + nu * tree_m(x)   (tree_m fitted to r)
func FitBoostedTrees(d *Dataset, opt BoostOptions) (*BoostedTrees, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if opt.Rounds < 1 {
		return nil, fmt.Errorf("ml: boosting rounds must be positive, got %d", opt.Rounds)
	}
	if opt.LearningRate <= 0 || opt.LearningRate > 1 {
		return nil, fmt.Errorf("ml: learning rate %g outside (0,1]", opt.LearningRate)
	}
	if opt.Subsample <= 0 || opt.Subsample > 1 {
		return nil, fmt.Errorf("ml: subsample fraction %g outside (0,1]", opt.Subsample)
	}
	if opt.Tree.MaxDepth > MaxEnsembleDepth {
		return nil, fmt.Errorf("ml: tree depth %d above the ensemble cap %d", opt.Tree.MaxDepth, MaxEnsembleDepth)
	}

	n := d.Len()
	base := 0.0
	for _, y := range d.Y {
		base += y
	}
	base /= float64(n)

	model := &BoostedTrees{base: base, learningRate: opt.LearningRate}
	trees := make([]*Tree, 0, opt.Rounds)
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = base
	}
	residual := make([]float64, n)
	rng := rand.New(rand.NewSource(opt.Seed))

	for round := 0; round < opt.Rounds; round++ {
		for i := range residual {
			residual[i] = d.Y[i] - pred[i]
		}
		fitData := d
		fitResidual := residual
		if opt.Subsample < 1 {
			m := int(float64(n) * opt.Subsample)
			if m < 1 {
				m = 1
			}
			idx := rng.Perm(n)[:m]
			fitData = d.Subset(idx)
			fitResidual = make([]float64, m)
			for k, i := range idx {
				fitResidual[k] = residual[i]
			}
		}
		tree, err := FitTree(fitData, fitResidual, opt.Tree)
		if err != nil {
			return nil, fmt.Errorf("ml: boosting round %d: %w", round, err)
		}
		trees = append(trees, tree)
		mse := 0.0
		for i, row := range d.X {
			pred[i] += opt.LearningRate * tree.Predict(row)
			e := d.Y[i] - pred[i]
			mse += e * e
		}
		model.TrainLoss = append(model.TrainLoss, mse/float64(n))
	}
	model.compile(trees)
	return model, nil
}
