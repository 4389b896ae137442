package ml

import "math"

// The compiled ensemble layout. A boosted ensemble is evaluated in the
// inner loop of the ML-driven searches (EML, SAML), so Predict is laid
// out for the CPU rather than for the builder: every tree becomes a
// complete binary tree of the ensemble's depth D in heap order, stored
// in three flat arrays shared by all trees (see BoostedTrees). A leaf
// shallower than D is padded with inner nodes whose threshold is +Inf
// and whose two subtrees both replicate the leaf, so every input — NaN
// included — reaches a copy of the same value. Predict then walks
// exactly D levels per tree with no data-dependent branch, advancing
// four trees at a time for instruction-level parallelism, and sums the
// leaves in tree order: the result is bit-identical to walking the
// fitted trees one by one.

// MaxEnsembleDepth caps the depth of every tree in a BoostedTrees
// ensemble, fitted or loaded. The compiled layout stores 2^D leaves per
// tree, so the cap bounds what one tree can cost; the paper models fit
// depth 7.
const MaxEnsembleDepth = 10

// maxSplitFeature is the largest split feature the layout encodes
// (features are stored as uint8).
const maxSplitFeature = math.MaxUint8

// compile lays the fitted trees out in b's compiled form. Every tree
// must have passed Tree.validate or come from FitTree.
func (b *BoostedTrees) compile(trees []*Tree) {
	depth := 0
	for _, t := range trees {
		depth = max(depth, t.Depth())
	}
	inner := 1<<depth - 1
	b.depth, b.ntrees = depth, len(trees)
	b.feat = make([]uint8, len(trees)*inner)
	b.thr = make([]float64, len(trees)*inner)
	b.leaves = make([]float64, len(trees)*(inner+1))
	b.real = make([]uint64, (len(trees)*inner+63)/64)
	b.splitMeans = nil
	for i, t := range trees {
		b.place(t, i*inner, i*(inner+1), 0, 0, 0)
	}
}

// place writes fitted node i of t at heap slot k (at the given level)
// of the tree whose inner nodes start at innerOff and leaves at leafOff.
func (b *BoostedTrees) place(t *Tree, innerOff, leafOff int, i int32, k, level int) {
	n := t.nodes[i]
	if level == b.depth {
		b.leaves[leafOff+k-(1<<b.depth-1)] = n.value
		return
	}
	if n.feature < 0 {
		// Padding: a +Inf split over two copies of the leaf.
		b.thr[innerOff+k] = math.Inf(1)
		b.place(t, innerOff, leafOff, i, 2*k+1, level+1)
		b.place(t, innerOff, leafOff, i, 2*k+2, level+1)
		return
	}
	b.feat[innerOff+k] = uint8(n.feature)
	b.thr[innerOff+k] = n.threshold
	b.real[(innerOff+k)/64] |= 1 << ((innerOff + k) % 64)
	b.splitMeans = append(b.splitMeans, n.value)
	b.place(t, innerOff, leafOff, n.left, 2*k+1, level+1)
	b.place(t, innerOff, leafOff, n.right, 2*k+2, level+1)
}

// b2i converts a comparison into 0 or 1; the compiler lowers it to a
// flag-setting instruction, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Predict implements Regressor. Each level moves to child
// 2k+1+[!(x[f] <= t)]: <= goes left, and NaN (which compares false)
// goes right, the routing Tree.Predict uses.
func (b *BoostedTrees) Predict(x []float64) float64 {
	out := b.base
	lr := b.learningRate
	depth := b.depth
	inner := 1<<depth - 1
	feat, thr, leaves := b.feat, b.thr, b.leaves
	t := 0
	for ; t+4 <= b.ntrees; t += 4 {
		o0, o1, o2, o3 := t*inner, (t+1)*inner, (t+2)*inner, (t+3)*inner
		k0, k1, k2, k3 := 0, 0, 0, 0
		for level := 0; level < depth; level++ {
			k0 = 2*k0 + 1 + b2i(!(x[feat[o0+k0]] <= thr[o0+k0]))
			k1 = 2*k1 + 1 + b2i(!(x[feat[o1+k1]] <= thr[o1+k1]))
			k2 = 2*k2 + 1 + b2i(!(x[feat[o2+k2]] <= thr[o2+k2]))
			k3 = 2*k3 + 1 + b2i(!(x[feat[o3+k3]] <= thr[o3+k3]))
		}
		// Heap slot k at depth D is leaf k-inner; tree t's leaves start
		// at t*(inner+1) = o_t+t, so the leaf index is o_t+t+k-inner.
		out += lr * leaves[o0+t+k0-inner]
		out += lr * leaves[o1+t+1+k1-inner]
		out += lr * leaves[o2+t+2+k2-inner]
		out += lr * leaves[o3+t+3+k3-inner]
	}
	for ; t < b.ntrees; t++ {
		o := t * inner
		k := 0
		for level := 0; level < depth; level++ {
			k = 2*k + 1 + b2i(!(x[feat[o+k]] <= thr[o+k]))
		}
		out += lr * leaves[o+t+k-inner]
	}
	return out
}

// MaxFeature returns the largest feature index any split reads, or -1
// for an ensemble of single-leaf trees. Inputs to Predict must be longer
// than it.
func (b *BoostedTrees) MaxFeature() int {
	if len(b.feat) == 0 {
		return -1 // depth 0: no inner slots, hence no split
	}
	// Padding slots hold feature 0, which never exceeds a real split's.
	m := 0
	for _, f := range b.feat {
		m = max(m, int(f))
	}
	return m
}

// persistedTrees rebuilds each tree's preorder node list — the layout
// FitTree builds and the persisted format stores — by collapsing the
// leaf padding back into single leaves.
func (b *BoostedTrees) persistedTrees() [][]persistedNode {
	var trees [][]persistedNode
	inner := 1<<b.depth - 1
	means := b.splitMeans
	for t := 0; t < b.ntrees; t++ {
		var nodes []persistedNode
		var emit func(k, level int) int32
		emit = func(k, level int) int32 {
			id := int32(len(nodes))
			slot := t*inner + k
			if level < b.depth && b.real[slot/64]&(1<<(slot%64)) != 0 {
				nodes = append(nodes, persistedNode{Feature: int(b.feat[slot]), Threshold: b.thr[slot], Value: means[0]})
				means = means[1:]
				left := emit(2*k+1, level+1)
				right := emit(2*k+2, level+1)
				nodes[id].Left, nodes[id].Right = left, right
				return id
			}
			for ; level < b.depth; level++ {
				k = 2*k + 1 // every padded descendant holds the same leaf
			}
			nodes = append(nodes, persistedNode{Feature: -1, Value: b.leaves[t*(inner+1)+k-inner]})
			return id
		}
		emit(0, 0)
		trees = append(trees, nodes)
	}
	return trees
}
