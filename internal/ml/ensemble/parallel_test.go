package ensemble

import (
	"bytes"
	"runtime"
	"testing"

	"parcost/internal/ml/tree"
	"parcost/internal/rng"
)

// treeSnaps flattens every member tree to its snapshot byte form (the
// preorder node arrays of tree/snapshot.go), the strongest available
// equality: two ensembles with equal snapshots grew identical trees node
// for node, bit for bit.
func treeSnaps(t *testing.T, trees []*tree.Tree) [][]byte {
	t.Helper()
	out := make([][]byte, len(trees))
	for i, tr := range trees {
		if tr == nil {
			t.Fatalf("tree %d is nil", i)
		}
		snap, err := tr.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = snap
	}
	return out
}

func requireSameFit(t *testing.T, name string, wantSnaps [][]byte, wantPred []float64, trees []*tree.Tree, pred []float64) {
	t.Helper()
	snaps := treeSnaps(t, trees)
	if len(snaps) != len(wantSnaps) {
		t.Fatalf("%s: %d trees vs %d in reference", name, len(snaps), len(wantSnaps))
	}
	for i := range snaps {
		if !bytes.Equal(snaps[i], wantSnaps[i]) {
			t.Fatalf("%s: tree %d node arrays differ from serial reference", name, i)
		}
	}
	for i := range pred {
		if pred[i] != wantPred[i] {
			t.Fatalf("%s: prediction %d differs: %v vs %v", name, i, pred[i], wantPred[i])
		}
	}
}

// TestEnsemblesParallelBitIdentical pins the determinism contract: GB, RF,
// and AdaBoost fits must be bit-identical — member-tree node arrays AND
// predictions — at GOMAXPROCS 2, 4 and 8 against a GOMAXPROCS 1 reference.
// RF grows its members on mat.Workers() goroutines; the boosters are serial
// and must stay width-independent.
func TestEnsemblesParallelBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-fit bit-identity battery")
	}
	r := rng.New(31)
	x, y := nonlinearData(r, 700, 0.2)

	type fitResult struct {
		trees []*tree.Tree
		pred  []float64
	}
	cases := []struct {
		name string
		fit  func() fitResult
	}{
		{"gb", func() fitResult {
			g := NewGradientBoosting(6, 0.1, tree.Params{MaxDepth: 5}, 7)
			if err := g.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			return fitResult{g.trees, g.Predict(x[:200])}
		}},
		{"gb-subsample", func() fitResult {
			g := NewGradientBoosting(10, 0.1, tree.Params{MaxDepth: 4}, 7)
			g.Subsample = 0.7
			if err := g.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			return fitResult{g.trees, g.Predict(x[:200])}
		}},
		{"rf", func() fitResult {
			f := NewRandomForest(24, tree.Params{MaxDepth: 7}, 11)
			if err := f.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			return fitResult{f.trees, f.Predict(x[:200])}
		}},
		{"adaboost", func() fitResult {
			a := NewAdaBoost(10, tree.Params{MaxDepth: 4}, 13)
			if err := a.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			return fitResult{a.trees, a.Predict(x[:200])}
		}},
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		runtime.GOMAXPROCS(1)
		ref := tc.fit()
		refSnaps := treeSnaps(t, ref.trees)
		for _, procs := range []int{2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			got := tc.fit()
			requireSameFit(t, tc.name, refSnaps, ref.pred, got.trees, got.pred)
		}
	}
}
