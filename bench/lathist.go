package main

import (
	"math/bits"

	"repro/internal/sim"
)

// lathist is a fixed-size log-linear latency histogram: 128 sub-buckets per
// power of two, so a bucket is at most 1/128 (0.78 %) of its value wide.
// internal/hist's four sub-buckets (19 %) are too coarse to resolve a bound
// of a few percent. The array is allocated with the worker, so recording
// inside the timed window allocates nothing.
const (
	latSubBits = 7
	latSub     = 1 << latSubBits
	latBuckets = (64 - latSubBits + 1) * latSub
)

type lathist struct {
	counts [latBuckets]uint32
	n      uint64
	sum    sim.Time
}

func latBucket(d sim.Time) int {
	if d < latSub {
		if d < 0 {
			d = 0
		}
		return int(d) // exact below 128 ns
	}
	exp := bits.Len64(uint64(d)) - 1 // >= latSubBits
	sub := int(uint64(d)>>(uint(exp)-latSubBits)) & (latSub - 1)
	return (exp-latSubBits+1)*latSub + sub
}

// latBounds returns the half-open value range [lo, hi) of bucket b.
func latBounds(b int) (lo, hi float64) {
	if b < latSub {
		return float64(b), float64(b + 1)
	}
	exp := uint(b/latSub) + latSubBits - 1
	sub := uint64(b % latSub)
	w := uint64(1) << (exp - latSubBits)
	l := uint64(1)<<exp | sub*w
	return float64(l), float64(l + w)
}

func (h *lathist) record(d sim.Time) {
	h.counts[latBucket(d)]++
	h.n++
	h.sum += d
}

func (h *lathist) merge(o *lathist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly by
// rank inside the bucket that holds it. Interpolation keeps the estimate a
// deterministic function of the counts (sim runs stay bit-identical) while
// letting it move by less than a bucket width.
func (h *lathist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := latBounds(b)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, _ := latBounds(latBuckets - 1)
	return lo
}
