package bank

import (
	"testing"

	"repro/internal/port"
)

func TestZipfDistribution(t *testing.T) {
	const n, draws = 256, 200000
	z := NewZipf(n, 1.0)
	if z.Ranks() != n {
		t.Fatalf("Ranks = %d, want %d", z.Ranks(), n)
	}
	r := port.NewRand(7)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := z.Pick(&r)
		if k < 0 || k >= n {
			t.Fatalf("Pick returned %d, out of [0,%d)", k, n)
		}
		counts[k]++
	}
	// Rank 0 carries ~1/H_n(1) ≈ 16% of the mass; rank 1 about half that.
	if counts[0] <= counts[1] || counts[1] <= counts[3] {
		t.Errorf("skew not monotone over top ranks: c0=%d c1=%d c3=%d",
			counts[0], counts[1], counts[3])
	}
	if frac := float64(counts[0]) / draws; frac < 0.10 || frac > 0.25 {
		t.Errorf("rank-0 frequency %.3f outside [0.10, 0.25]", frac)
	}
	tail := 0
	for _, c := range counts[n/2:] {
		tail += c
	}
	if frac := float64(tail) / draws; frac > 0.25 {
		t.Errorf("top-half tail frequency %.3f, want < 0.25 under theta=1", frac)
	}
}

func TestZipfThetaZeroIsUniformWorker(t *testing.T) {
	// theta = 0 must fall back to the plain TransferWorker so the uniform
	// rows of the placement ablation are bit-identical to the historic
	// workload.
	b := &Bank{n: 16}
	w1 := b.ZipfTransferWorker(0, 0)
	if w1 == nil {
		t.Fatal("nil worker")
	}
	// And a degenerate sampler must still cover all ranks roughly evenly.
	z := NewZipf(64, 0)
	r := port.NewRand(3)
	counts := make([]int, 64)
	for i := 0; i < 64000; i++ {
		counts[z.Pick(&r)]++
	}
	for k, c := range counts {
		if c < 500 || c > 1500 {
			t.Fatalf("uniform-degenerate zipf rank %d drawn %d/64000 times", k, c)
		}
	}
}
