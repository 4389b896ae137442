package ml

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// referencePredict is the ensemble prediction walked tree by tree over
// the fitted nodes: the semantics the compiled layout must reproduce bit
// for bit.
func referencePredict(base, lr float64, trees []*Tree, x []float64) float64 {
	out := base
	for _, t := range trees {
		out += lr * t.Predict(x)
	}
	return out
}

// layoutProbes returns inputs that stress every routing edge of trees:
// random values, values exactly equal to a split threshold (which must
// go left), ±Inf and NaN (which must go right).
func layoutProbes(rng *rand.Rand, dim int, trees []*Tree) [][]float64 {
	var thresholds []float64
	for _, t := range trees {
		for _, n := range t.nodes {
			if n.feature >= 0 {
				thresholds = append(thresholds, n.threshold)
			}
		}
	}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	probes := make([][]float64, 3000)
	for i := range probes {
		x := make([]float64, dim)
		for j := range x {
			switch r := rng.Intn(10); {
			case r < 5:
				x[j] = rng.Float64()*12 - 1
			case r < 8 && len(thresholds) > 0:
				x[j] = thresholds[rng.Intn(len(thresholds))]
			default:
				x[j] = specials[rng.Intn(len(specials))]
			}
		}
		probes[i] = x
	}
	return probes
}

func TestCompiledPredictBitIdenticalEveryDepth(t *testing.T) {
	const dim = 4
	d := synth(1500, dim, 41, 0.1, func(x []float64) float64 {
		return math.Sin(x[0])*x[1] + x[2]*x[2] - 3*x[3]
	})
	rng := rand.New(rand.NewSource(42))
	for depth := 1; depth <= MaxEnsembleDepth; depth++ {
		// Mixed depths and unbalanced trees, so padding is exercised at
		// every level; residual-like random targets keep the trees
		// distinct.
		trees := make([]*Tree, 0, 9)
		for i := 0; i < 9; i++ {
			targets := make([]float64, d.Len())
			for j := range targets {
				targets[j] = d.Y[j] + rng.NormFloat64()
			}
			tree, err := FitTree(d, targets, TreeOptions{MaxDepth: 1 + rng.Intn(depth), MinLeaf: 1 + rng.Intn(20)})
			if err != nil {
				t.Fatal(err)
			}
			trees = append(trees, tree)
		}
		if trees[0], _ = FitTree(d, d.Y, TreeOptions{MaxDepth: depth, MinLeaf: 1}); trees[0].Depth() != depth {
			t.Fatalf("fixture tree has depth %d, want %d", trees[0].Depth(), depth)
		}
		b := &BoostedTrees{base: 0.37, learningRate: 0.08}
		b.compile(trees)
		if b.depth != depth {
			t.Fatalf("compiled depth %d, want %d", b.depth, depth)
		}
		for _, x := range append(layoutProbes(rng, dim, trees), d.X...) {
			want := referencePredict(b.base, b.learningRate, trees, x)
			if got := b.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("depth %d: Predict(%v) = %x, reference walk %x", depth, x, got, want)
			}
		}
	}
}

func TestFitBoostedTreesPredictMatchesTrainingWalk(t *testing.T) {
	// FitBoostedTrees accumulates its training predictions by walking
	// each fitted tree; the compiled model must reproduce the final
	// training loss exactly.
	d := synth(500, 3, 43, 0.05, func(x []float64) float64 { return x[0]*x[1] - x[2] })
	m, err := FitBoostedTrees(d, BoostOptions{Rounds: 50, Seed: 5, Tree: TreeOptions{MaxDepth: 7, MinLeaf: 5}})
	if err != nil {
		t.Fatal(err)
	}
	mse := 0.0
	for i, row := range d.X {
		e := d.Y[i] - m.Predict(row)
		mse += e * e
	}
	mse /= float64(d.Len())
	if want := m.TrainLoss[len(m.TrainLoss)-1]; math.Float64bits(mse) != math.Float64bits(want) {
		t.Fatalf("training loss from compiled predictions %x, fitted %x", mse, want)
	}
}

// saveGoldenSHA256 is the SHA-256 of Save's output for the fixed-seed
// model below, recorded before the compiled layout replaced the
// per-tree node arenas: the persisted format must not change.
const saveGoldenSHA256 = "e824b4f5b8e23cff5838c1c2c2a6e4d05acbe5d78285a5bc5cd789b43364d46c"

func goldenModel(t *testing.T) *BoostedTrees {
	t.Helper()
	d := synth(400, 3, 33, 0.05, func(x []float64) float64 { return x[0]*x[1] - x[2] })
	m, err := FitBoostedTrees(d, BoostOptions{Rounds: 60, Seed: 3, Tree: TreeOptions{MaxDepth: 7, MinLeaf: 5}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSaveGoldenBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenModel(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != saveGoldenSHA256 {
		t.Fatalf("Save output SHA-256 %s, golden %s", got, saveGoldenSHA256)
	}
}

func TestSaveLoadSaveIdenticalBytes(t *testing.T) {
	var first bytes.Buffer
	if err := goldenModel(t).Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBoostedTrees(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("Save after Load differs: %d vs %d bytes", second.Len(), first.Len())
	}
}

// encodeEnsemble gob-encodes a hand-built persisted ensemble.
func encodeEnsemble(t *testing.T, trees ...[]persistedNode) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(persistedBoosted{LearningRate: 0.1, Trees: trees}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func leaf(v float64) persistedNode { return persistedNode{Feature: -1, Value: v} }

// chain returns a tree of the given depth: a spine of splits on
// feature 0, each with a leaf on its left.
func chain(depth int) []persistedNode {
	var nodes []persistedNode
	for i := 0; i < depth; i++ {
		id := int32(len(nodes))
		nodes = append(nodes, persistedNode{Feature: 0, Threshold: float64(i), Left: id + 1, Right: id + 2}, leaf(float64(i)))
	}
	return append(nodes, leaf(-1))
}

func TestLoadBoostedTreesRejectsMalformedTrees(t *testing.T) {
	cases := []struct {
		name  string
		tree  []persistedNode
		inErr string
	}{
		// Before validation required children to follow their parent,
		// this loaded and Predict never returned.
		{"two-cycle", []persistedNode{{Feature: 0, Left: 1, Right: 1}, {Feature: 0, Left: 0, Right: 0}}, "children"},
		{"backward-child", []persistedNode{leaf(1), {Feature: 0, Left: 0, Right: 2}, leaf(2)}, "children"},
		{"feature-above-uint8", []persistedNode{{Feature: 256, Left: 1, Right: 2}, leaf(1), leaf(2)}, "feature 256"},
		{"too-deep", chain(MaxEnsembleDepth + 1), "depth"},
	}
	for _, c := range cases {
		_, err := LoadBoostedTrees(bytes.NewReader(encodeEnsemble(t, c.tree)))
		if err == nil || !strings.Contains(err.Error(), c.inErr) {
			t.Errorf("%s: got error %v, want one mentioning %q", c.name, err, c.inErr)
		}
	}
	// The cap itself and the widest feature still load and predict.
	wide := []persistedNode{{Feature: 255, Threshold: 0.5, Left: 1, Right: 2}, leaf(1), leaf(2)}
	m, err := LoadBoostedTrees(bytes.NewReader(encodeEnsemble(t, chain(MaxEnsembleDepth), wide)))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 256)
	x[0], x[255] = 100, 1 // right down the whole chain, right at the wide split
	lr := 0.1
	if got, want := m.Predict(x), lr*(-1)+lr*2; got != want {
		t.Fatalf("Predict = %g, want %g", got, want)
	}
	if m.MaxFeature() != 255 {
		t.Fatalf("MaxFeature = %d, want 255", m.MaxFeature())
	}
}

func TestFitBoostedTreesRejectsDepthAboveCap(t *testing.T) {
	d := synth(50, 1, 44, 0, func(x []float64) float64 { return x[0] })
	if _, err := FitBoostedTrees(d, BoostOptions{Rounds: 2, Tree: TreeOptions{MaxDepth: MaxEnsembleDepth + 1}}); err == nil {
		t.Fatal("depth above the cap should fail")
	}
	if _, err := FitBoostedTrees(d, BoostOptions{Rounds: 2, Tree: TreeOptions{MaxDepth: MaxEnsembleDepth}}); err != nil {
		t.Fatalf("depth at the cap: %v", err)
	}
}

func TestMaxFeatureSingleLeafEnsemble(t *testing.T) {
	d := synth(20, 2, 45, 0, func([]float64) float64 { return 3 })
	m, err := FitBoostedTrees(d, BoostOptions{Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxFeature() != -1 {
		t.Fatalf("constant target: MaxFeature = %d, want -1", m.MaxFeature())
	}
	if got := m.Predict([]float64{0, 0}); got != 3 {
		t.Fatalf("Predict = %g, want 3", got)
	}
}

func TestSaveKeepsFittedSplitAtInf(t *testing.T) {
	// With NaN among the training features, a fitted split can sit at
	// +Inf (every number left, NaN right), the threshold padding uses.
	// Save must still write it as a split, not collapse it.
	d := &Dataset{}
	for i, v := range []float64{0.66, 0.42, 1e308, math.Inf(1), math.NaN()} {
		d.Append([]float64{v}, []float64{0, 0, 0, 10, 0}[i])
	}
	m, err := FitBoostedTrees(d, BoostOptions{Rounds: 2, Subsample: 1, Tree: TreeOptions{MaxDepth: 3, MinLeaf: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := m.Save(&first); err != nil {
		t.Fatal(err)
	}
	var p persistedBoosted
	if err := gob.NewDecoder(bytes.NewReader(first.Bytes())).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if root := p.Trees[0][0]; root.Feature != 0 || !math.IsInf(root.Threshold, 1) || len(p.Trees[0]) < 3 {
		t.Fatalf("fixture should fit a root split at +Inf, got %+v", p.Trees[0])
	}
	loaded, err := LoadBoostedTrees(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{1, math.Inf(1), math.NaN()} {
		x := []float64{v}
		if a, b := m.Predict(x), loaded.Predict(x); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("Predict(%g): fitted %g, reloaded %g", v, a, b)
		}
	}
	if m.Predict([]float64{1}) == m.Predict([]float64{math.NaN()}) {
		t.Fatal("the +Inf split should route NaN to a different leaf")
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Save after Load differs")
	}
}
