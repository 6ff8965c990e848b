package bank

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/port"
)

// Zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^theta
// — the skewed key chooser of the placement experiments. Construction
// precomputes the CDF once (O(n)); Pick is a binary search. A Zipf is
// read-only after construction and may be shared by every worker.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler over n ranks with skew exponent theta.
// theta = 0 degenerates to uniform; theta around 1 matches classic web/OLTP
// skew ("80/20"); larger values concentrate harder on the low ranks. It
// panics on an empty rank space or a negative exponent — callers with
// user-supplied sizes (flag parsing) must validate first.
func NewZipf(n int, theta float64) *Zipf {
	if n < 1 {
		panic(fmt.Sprintf("bank: Zipf sampler over %d ranks, need at least 1", n))
	}
	if math.IsNaN(theta) || theta < 0 {
		panic(fmt.Sprintf("bank: invalid Zipf exponent %v", theta))
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}
}

// Ranks returns the number of ranks.
func (z *Zipf) Ranks() int { return len(z.cdf) }

// Pick draws one rank.
func (z *Zipf) Pick(r *port.Rand) int {
	return sort.SearchFloat64s(z.cdf, r.Float64())
}

// HotReadWorker returns a worker mixing uniform transfers (writePct
// percent of operations) with read-only audit transactions that read
// readSet accounts chosen Zipf(theta)-skewed. Read locks are shared, so the
// skew creates no data conflicts — only service load concentrated on the
// DTM nodes owning the hot accounts. This is the workload placement
// policies differ on most: throughput is bound by the hottest node's queue,
// not by aborts.
func (b *Bank) HotReadWorker(writePct, readSet int, theta float64) func(rt *core.Runtime) {
	z := NewZipf(b.n, theta)
	return func(rt *core.Runtime) {
		r := rt.Rand()
		for !rt.Stopped() {
			if r.Intn(100) < writePct {
				from, to := PickTransfer(r, b.n)
				b.Transfer(rt, from, to, 1)
			} else {
				rt.RunKind(b.readKind(), func(tx *core.Tx) {
					for i := 0; i < readSet; i++ {
						b.accts.Get(tx, z.Pick(r))
					}
				})
			}
			rt.AddOps(1)
		}
	}
}

// LocalZipfWorker partitions the account array into parts contiguous
// slices and returns a worker that transfers between Zipf(theta)-skewed
// accounts of the partition partOf assigns to its core. With partOf =
// Platform.ClusterOf and parts = Platform.NumClusters this is the
// locality-structured workload of the scaleplace experiment: every
// cluster's heat lands on a disjoint contiguous account range, so an
// affinity-aware placement policy can co-locate each range with its
// accessors while a flat policy only balances totals. The last partition
// absorbs the remainder when parts does not divide the account count.
func (b *Bank) LocalZipfWorker(parts int, partOf func(core int) int, theta float64) func(rt *core.Runtime) {
	if parts < 1 || b.n < 2*parts {
		panic(fmt.Sprintf("bank: %d accounts cannot be split into %d partitions of at least 2", b.n, parts))
	}
	size := b.n / parts
	samplers := make([]*Zipf, parts)
	for p := range samplers {
		n := size
		if p == parts-1 {
			n = b.n - p*size
		}
		samplers[p] = NewZipf(n, theta)
	}
	return func(rt *core.Runtime) {
		part := partOf(rt.Core()) % parts
		base := part * size
		z := samplers[part]
		r := rt.Rand()
		for !rt.Stopped() {
			from := z.Pick(r)
			to := z.Pick(r)
			if to == from {
				to = (from + 1 + r.Intn(z.Ranks()-1)) % z.Ranks()
			}
			b.Transfer(rt, base+from, base+to, 1)
			rt.AddOps(1)
		}
	}
}

// ZipfTransferWorker is TransferWorker with Zipf(theta)-skewed account
// choice: rank r is account r, so the hot accounts cluster at the low end
// of the array (contiguous heat — the case range placement concentrates on
// one node and adaptive placement spreads back out). theta = 0 falls back
// to the uniform TransferWorker.
func (b *Bank) ZipfTransferWorker(balancePct int, theta float64) func(rt *core.Runtime) {
	if theta == 0 {
		return b.TransferWorker(balancePct)
	}
	z := NewZipf(b.n, theta)
	return func(rt *core.Runtime) {
		r := rt.Rand()
		for !rt.Stopped() {
			if balancePct > 0 && r.Intn(100) < balancePct {
				b.Balance(rt)
			} else {
				from := z.Pick(r)
				to := z.Pick(r)
				if to == from {
					to = (from + 1 + r.Intn(b.n-1)) % b.n
				}
				b.Transfer(rt, from, to, 1)
			}
			rt.AddOps(1)
		}
	}
}
