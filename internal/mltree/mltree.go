// Package mltree implements CART-style classification trees (Breiman et
// al.), the "industry-standard Machine Learning method" the paper uses
// to learn the HBBP data-source rule (Section IV).
//
// The implementation covers exactly what the paper relies on: binary
// splits on numeric features chosen by Gini impurity decrease, depth and
// leaf-size limits, weighted training samples, scikit-style feature
// importances, and a white-box text rendering equivalent to Figure 1.
package mltree

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Dataset is a labelled training set. Rows of X are feature vectors; Y
// holds class indices into ClassNames; W holds optional per-sample
// weights (nil means uniform). The paper weights blocks "by the number
// of executions of the basic block".
type Dataset struct {
	FeatureNames []string
	ClassNames   []string
	X            [][]float64
	Y            []int
	W            []float64
}

// Validate checks the dataset's structural consistency.
func (d *Dataset) Validate() error {
	if len(d.X) == 0 {
		return fmt.Errorf("mltree: empty dataset")
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("mltree: %d rows but %d labels", len(d.X), len(d.Y))
	}
	if d.W != nil && len(d.W) != len(d.X) {
		return fmt.Errorf("mltree: %d rows but %d weights", len(d.X), len(d.W))
	}
	nf := len(d.FeatureNames)
	for i, row := range d.X {
		if len(row) != nf {
			return fmt.Errorf("mltree: row %d has %d features, want %d", i, len(row), nf)
		}
	}
	for i, y := range d.Y {
		if y < 0 || y >= len(d.ClassNames) {
			return fmt.Errorf("mltree: row %d has label %d outside %d classes", i, y, len(d.ClassNames))
		}
	}
	if d.W != nil {
		for i, w := range d.W {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("mltree: row %d has invalid weight %g", i, w)
			}
		}
	}
	return nil
}

// weight returns the weight of row i.
func (d *Dataset) weight(i int) float64 {
	if d.W == nil {
		return 1
	}
	return d.W[i]
}

// Params bound tree growth.
type Params struct {
	// MaxDepth limits tree depth (root = depth 0). Zero means 4 — the
	// paper keeps the rule small "for simplicity".
	MaxDepth int
	// MinLeafWeight is the minimum total sample weight in a leaf.
	// Zero means 1.
	MinLeafWeight float64
	// MinImpurityDecrease prunes splits that do not reduce weighted
	// Gini impurity by at least this much.
	MinImpurityDecrease float64
}

func (p Params) withDefaults() Params {
	if p.MaxDepth == 0 {
		p.MaxDepth = 4
	}
	if p.MinLeafWeight == 0 {
		p.MinLeafWeight = 1
	}
	return p
}

// Node is one tree node. Leaves have Left == Right == nil.
type Node struct {
	// Feature and Threshold define the split: rows with
	// x[Feature] <= Threshold go left. Valid on internal nodes only.
	Feature   int
	Threshold float64
	Left      *Node
	Right     *Node

	// Class is the majority class of the node's training samples.
	Class int
	// Gini is the node's Gini impurity.
	Gini float64
	// Weight is the total training weight reaching the node.
	Weight float64
	// Samples is the unweighted training row count reaching the node.
	Samples int
	// ClassWeights is the per-class training weight at the node.
	ClassWeights []float64
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Left == nil }

// Tree is a trained classifier.
type Tree struct {
	Root         *Node
	FeatureNames []string
	ClassNames   []string
	importances  []float64
}

// gini computes the Gini impurity of a class-weight vector with total w.
func gini(classW []float64, w float64) float64 {
	if w == 0 {
		return 0
	}
	s := 1.0
	for _, cw := range classW {
		p := cw / w
		s -= p * p
	}
	return s
}

func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// Train grows a classification tree on ds.
func Train(ds *Dataset, params Params) (*Tree, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	params = params.withDefaults()
	idx := make([]int, len(ds.X))
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{
		FeatureNames: ds.FeatureNames,
		ClassNames:   ds.ClassNames,
		importances:  make([]float64, len(ds.FeatureNames)),
	}
	t.Root = t.grow(ds, idx, 0, params)
	// Normalize importances.
	var tot float64
	for _, v := range t.importances {
		tot += v
	}
	if tot > 0 {
		for i := range t.importances {
			t.importances[i] /= tot
		}
	}
	return t, nil
}

// grow recursively builds the subtree over the rows in idx.
func (t *Tree) grow(ds *Dataset, idx []int, depth int, params Params) *Node {
	classW := make([]float64, len(ds.ClassNames))
	var total float64
	for _, i := range idx {
		w := ds.weight(i)
		classW[ds.Y[i]] += w
		total += w
	}
	node := &Node{
		Class:        argmax(classW),
		Gini:         gini(classW, total),
		Weight:       total,
		Samples:      len(idx),
		ClassWeights: classW,
	}
	if depth >= params.MaxDepth || node.Gini == 0 || total < 2*params.MinLeafWeight {
		return node
	}
	feature, threshold, decrease := bestSplit(ds, idx, classW, total, params)
	if feature < 0 || decrease < params.MinImpurityDecrease {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if ds.X[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return node
	}
	node.Feature = feature
	node.Threshold = threshold
	t.importances[feature] += decrease
	node.Left = t.grow(ds, left, depth+1, params)
	node.Right = t.grow(ds, right, depth+1, params)
	return node
}

// bestSplit scans every feature for the threshold maximising weighted
// Gini impurity decrease. It returns (-1, 0, 0) when no admissible split
// exists.
func bestSplit(ds *Dataset, idx []int, parentClassW []float64, total float64, params Params) (feature int, threshold, decrease float64) {
	parentGini := gini(parentClassW, total)
	feature = -1
	nClass := len(ds.ClassNames)

	order := make([]int, len(idx))
	leftW := make([]float64, nClass)
	for f := 0; f < len(ds.FeatureNames); f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return ds.X[order[a]][f] < ds.X[order[b]][f] })
		for i := range leftW {
			leftW[i] = 0
		}
		var wLeft float64
		for k := 0; k+1 < len(order); k++ {
			i := order[k]
			w := ds.weight(i)
			leftW[ds.Y[i]] += w
			wLeft += w
			x, xNext := ds.X[i][f], ds.X[order[k+1]][f]
			if x == xNext {
				continue
			}
			wRight := total - wLeft
			if wLeft < params.MinLeafWeight || wRight < params.MinLeafWeight {
				continue
			}
			gLeft := gini(leftW, wLeft)
			// Right class weights = parent - left.
			gRight := giniComplement(parentClassW, leftW, wRight)
			childGini := (wLeft*gLeft + wRight*gRight) / total
			dec := (parentGini - childGini) * total
			if dec > decrease {
				decrease = dec
				feature = f
				threshold = (x + xNext) / 2
			}
		}
	}
	return feature, threshold, decrease
}

// giniComplement computes the Gini impurity of (parent - left) with
// total weight w, without allocating.
func giniComplement(parent, left []float64, w float64) float64 {
	if w == 0 {
		return 0
	}
	s := 1.0
	for i := range parent {
		p := (parent[i] - left[i]) / w
		s -= p * p
	}
	return s
}

// Predict returns the class index for a feature vector.
func (t *Tree) Predict(x []float64) int {
	n := t.Root
	for !n.IsLeaf() {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Class
}

// PredictName returns the class name for a feature vector.
func (t *Tree) PredictName(x []float64) string {
	return t.ClassNames[t.Predict(x)]
}

// FeatureImportances returns the normalized total impurity decrease per
// feature — the quantity the paper quotes as "feature importance
// (reported by Scikit)".
func (t *Tree) FeatureImportances() []float64 {
	out := make([]float64, len(t.importances))
	copy(out, t.importances)
	return out
}

// Depth returns the maximum depth of the tree (root = 0).
func (t *Tree) Depth() int { return nodeDepth(t.Root) }

func nodeDepth(n *Node) int {
	if n.IsLeaf() {
		return 0
	}
	l, r := nodeDepth(n.Left), nodeDepth(n.Right)
	if r > l {
		l = r
	}
	return l + 1
}

// Render returns a white-box text rendering of the tree in the style of
// the paper's Figure 1: each node shows its split, Gini impurity and
// training sample count, each leaf its class.
func (t *Tree) Render() string {
	var sb strings.Builder
	t.render(&sb, t.Root, "", true)
	return sb.String()
}

func (t *Tree) render(sb *strings.Builder, n *Node, indent string, isRoot bool) {
	if n.IsLeaf() {
		fmt.Fprintf(sb, "%sclass = %s (gini %.3f, samples %d, weight %.0f)\n",
			indent, t.ClassNames[n.Class], n.Gini, n.Samples, n.Weight)
		return
	}
	fmt.Fprintf(sb, "%s%s <= %.2f? (gini %.3f, samples %d, weight %.0f)\n",
		indent, t.FeatureNames[n.Feature], n.Threshold, n.Gini, n.Samples, n.Weight)
	childIndent := indent + "  "
	fmt.Fprintf(sb, "%s├─ yes:\n", indent)
	t.render(sb, n.Left, childIndent+"│ ", false)
	fmt.Fprintf(sb, "%s└─ no:\n", indent)
	t.render(sb, n.Right, childIndent, false)
}

// RootRule summarises the root split as a human-readable sentence, e.g.
// "block_len <= 18.50 -> LBR else EBS". It returns an empty string for a
// leaf-only tree.
func (t *Tree) RootRule() string {
	r := t.Root
	if r.IsLeaf() {
		return ""
	}
	return fmt.Sprintf("%s <= %.2f -> %s else %s",
		t.FeatureNames[r.Feature], r.Threshold,
		t.ClassNames[majorityClass(r.Left)], t.ClassNames[majorityClass(r.Right)])
}

func majorityClass(n *Node) int { return n.Class }
