package ensemble

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"parcost/internal/ccsd"
	"parcost/internal/machine"
	"parcost/internal/ml/tree"
)

// goldenEnsembleDigest pins the tree ensembles' fitted output across
// versions: a sha256 over every member tree's SnapshotState bytes plus the
// IEEE bits of Predict on the training rows, for GB, RF and AdaBoost fit on
// the simulated Aurora and Frontier datasets at the shipped 2300-row size.
// A change to this value changes fitted models; it must come with a
// CHANGES.md entry saying why.
const goldenEnsembleDigest = "d6f34399594d5481d862201111ebe72c9971b228c8e40cc23c69439208e2532e"

func hashTrees(t *testing.T, h hash.Hash, trees []*tree.Tree) {
	t.Helper()
	for _, snap := range treeSnaps(t, trees) {
		h.Write(snap)
	}
}

func hashFloats(h hash.Hash, v []float64) {
	var b [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
}

// TestGoldenEnsembleFits is the cross-version fence over ensemble fitting
// at the data shapes the system ships.
func TestGoldenEnsembleFits(t *testing.T) {
	if testing.Short() {
		t.Skip("generates two 2300-row datasets")
	}
	h := sha256.New()
	for _, spec := range []machine.Spec{machine.Aurora(), machine.Frontier()} {
		d := ccsd.Generate(spec, ccsd.GenConfig{TargetSize: 2300, Noise: true, Seed: 1})
		x, y := d.Features(), d.Targets()
		h.Write([]byte(spec.Name))

		gb := NewGradientBoosting(40, 0.1, tree.Params{MaxDepth: 10, MinSamplesSplit: 2, MinSamplesLeaf: 1}, 1)
		if err := gb.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		hashTrees(t, h, gb.trees)
		hashFloats(h, gb.Predict(x))

		gbSub := NewGradientBoosting(20, 0.1, tree.Params{MaxDepth: 6}, 2)
		gbSub.Subsample = 0.7
		if err := gbSub.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		hashTrees(t, h, gbSub.trees)
		hashFloats(h, gbSub.Predict(x))

		rf := NewRandomForest(30, tree.Params{MaxDepth: 10}, 3)
		if err := rf.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		hashTrees(t, h, rf.trees)
		hashFloats(h, rf.Predict(x))

		ab := NewAdaBoost(20, tree.Params{MaxDepth: 6}, 4)
		if err := ab.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		hashTrees(t, h, ab.trees)
		hashFloats(h, ab.betas)
		hashFloats(h, ab.Predict(x))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenEnsembleDigest {
		t.Fatalf("ensemble fit digest = %s, want %s", got, goldenEnsembleDigest)
	}
}
