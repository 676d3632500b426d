package mat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"parcost/internal/rng"
)

// goldenCholeskyDigest pins NewCholesky's packed factor of a fixed 200×200
// SPD matrix across versions (sha256 over the IEEE bits of the packed lower
// triangle). A change to this value changes every kernel-model fit; it must
// come with a CHANGES.md entry saying why.
const goldenCholeskyDigest = "24113e9b81c5c89961df99b97141e3f86666e7aa60354b0242861efcfc733e50"

func TestGoldenCholeskyFactor(t *testing.T) {
	a := randSPD(rng.New(200), 200)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	for _, v := range ch.l {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenCholeskyDigest {
		t.Fatalf("Cholesky factor digest = %s, want %s", got, goldenCholeskyDigest)
	}
}
