package ml

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Model persistence: trained ensembles can be saved and reloaded, the
// "off-line learning" usage the paper describes (train once, reuse the
// predictor for new inputs without re-measuring).

// persistedNode mirrors treeNode with exported fields for encoding.
type persistedNode struct {
	Feature     int
	Threshold   float64
	Left, Right int32
	Value       float64
}

// persistedBoosted is the serialized form of BoostedTrees.
type persistedBoosted struct {
	Base         float64
	LearningRate float64
	Trees        [][]persistedNode
}

// Save writes the ensemble to w in gob encoding.
func (b *BoostedTrees) Save(w io.Writer) error {
	p := persistedBoosted{Base: b.base, LearningRate: b.learningRate, Trees: b.persistedTrees()}
	if err := gob.NewEncoder(w).Encode(p); err != nil {
		return fmt.Errorf("ml: saving boosted trees: %w", err)
	}
	return nil
}

// LoadBoostedTrees reads an ensemble previously written by Save,
// validates every tree and compiles the ensemble.
func LoadBoostedTrees(r io.Reader) (*BoostedTrees, error) {
	var p persistedBoosted
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("ml: loading boosted trees: %w", err)
	}
	if p.LearningRate <= 0 || p.LearningRate > 1 {
		return nil, fmt.Errorf("ml: loaded learning rate %g outside (0,1]", p.LearningRate)
	}
	trees := make([]*Tree, 0, len(p.Trees))
	for i, nodes := range p.Trees {
		if len(nodes) == 0 {
			return nil, fmt.Errorf("ml: loaded tree %d is empty", i)
		}
		t := &Tree{nodes: make([]treeNode, len(nodes))}
		for j, n := range nodes {
			t.nodes[j] = treeNode{
				feature:   n.Feature,
				threshold: n.Threshold,
				left:      n.Left,
				right:     n.Right,
				value:     n.Value,
			}
		}
		if err := t.validate(); err != nil {
			return nil, fmt.Errorf("ml: loaded tree %d: %w", i, err)
		}
		trees = append(trees, t)
	}
	b := &BoostedTrees{base: p.Base, learningRate: p.LearningRate}
	b.compile(trees)
	return b, nil
}

// validate checks that a deserialized tree is one Predict and the
// compiled layout can walk: every child index follows its parent's (the
// builder emits preorder, and the rule excludes cycles), split features
// fit the layout's uint8, and the depth is within MaxEnsembleDepth.
func (t *Tree) validate() error {
	n := int32(len(t.nodes))
	height := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		node := t.nodes[i]
		if node.feature < 0 {
			continue // leaf
		}
		if node.feature > maxSplitFeature {
			return fmt.Errorf("node %d splits on feature %d, above %d", i, node.feature, maxSplitFeature)
		}
		if node.left <= i || node.left >= n || node.right <= i || node.right >= n {
			return fmt.Errorf("node %d has children (%d, %d) outside (%d, %d)", i, node.left, node.right, i, n)
		}
		height[i] = 1 + max(height[node.left], height[node.right])
	}
	if height[0] > MaxEnsembleDepth {
		return fmt.Errorf("depth %d above the ensemble cap %d", height[0], MaxEnsembleDepth)
	}
	return nil
}
