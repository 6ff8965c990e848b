// Package hist provides a small log-bucketed latency histogram for virtual
// durations. The runtime records every transaction's lifespan (start to
// commit, across aborts) and the harness reports percentiles — the metric
// behind the paper's starvation-freedom story: under a fair CM the p99
// lifespan stays bounded even on conflict-heavy workloads.
package hist

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/port"
)

// branching factor: each bucket spans a x2 range starting at 1ns, with 4
// sub-buckets per octave for ~19% resolution. Bucket 0 holds 0 and 1.
const (
	subBits    = 2
	subBuckets = 1 << subBits
	maxBuckets = 64 * subBuckets
	// window is how many buckets a histogram stores from its first
	// observation on: 24 octaves, a 16.7-million-fold range. It starts
	// below buckets (4 octaves) under that observation: latencies skew up.
	window = 24 * subBuckets
	below  = 4 * subBuckets
)

// Histogram accumulates virtual durations. The zero value is ready to use.
// Of the maxBuckets log buckets it stores only a window, allocated by the
// first Observe around that value and widened only when a value falls
// outside it: a core that never times a phase carries no buckets for it.
// A copied Histogram would share its buckets, so go vet flags a copy by
// value; Merge into a zero one to copy.
type Histogram struct {
	_      noCopy
	counts []uint64 // buckets lo, lo+1, ...; nil until the first observation
	lo     int
	n      uint64
	sum    port.Time
	max    port.Time
	min    port.Time
}

// noCopy has the Lock and Unlock methods go vet's copylocks check looks
// for; it takes no space.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

func bucketOf(d port.Time) int {
	if d < 1 {
		d = 1
	}
	exp := 63 - leadingZeros(uint64(d))
	var sub int
	if exp >= subBits {
		sub = int(uint64(d)>>(uint(exp)-subBits)) & (subBuckets - 1)
	}
	b := exp*subBuckets + sub
	if b >= maxBuckets {
		b = maxBuckets - 1
	}
	return b
}

func leadingZeros(x uint64) int {
	n := 0
	for x&(1<<63) == 0 && n < 64 {
		x <<= 1
		n++
	}
	return n
}

// bucketLow returns the lower bound of bucket b.
func bucketLow(b int) port.Time {
	if b == 0 {
		return 0 // it holds 0 as well as 1
	}
	exp := b / subBuckets
	sub := b % subBuckets
	if exp < subBits {
		return port.Time(uint64(1) << uint(exp))
	}
	base := uint64(1) << uint(exp)
	return port.Time(base | uint64(sub)<<(uint(exp)-subBits))
}

// cover makes the stored buckets include [lo, hi): at least a window from
// below buckets under lo the first time, the union with what is stored
// after that.
func (h *Histogram) cover(lo, hi int) {
	if h.counts != nil {
		if lo >= h.lo && hi <= h.lo+len(h.counts) {
			return
		}
		lo, hi = min(lo, h.lo), max(hi, h.lo+len(h.counts))
	} else if hi-lo < window {
		lo = min(max(lo-below, 0), maxBuckets-window)
		hi = max(hi, lo+window)
	}
	grown := make([]uint64, hi-lo)
	if h.counts != nil {
		copy(grown[h.lo-lo:], h.counts)
	}
	h.counts, h.lo = grown, lo
}

// Observe records one duration.
func (h *Histogram) Observe(d port.Time) {
	if d < 0 {
		d = 0
	}
	b := bucketOf(d)
	h.cover(b, b+1)
	h.counts[b-h.lo]++
	h.n++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	if h.n == 1 || d < h.min {
		h.min = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the mean observation.
func (h *Histogram) Mean() port.Time {
	if h.n == 0 {
		return 0
	}
	return h.sum / port.Time(h.n)
}

// Max returns the largest observation.
func (h *Histogram) Max() port.Time { return h.max }

// Min returns the smallest observation.
func (h *Histogram) Min() port.Time { return h.min }

// Quantile returns an approximation (bucket lower bound) of quantile q in
// [0, 1].
func (h *Histogram) Quantile(q float64) port.Time {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return bucketLow(h.lo + i)
		}
	}
	return h.max
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.n == 0 {
		return
	}
	h.cover(other.lo, other.lo+len(other.counts))
	for i, c := range other.counts {
		h.counts[other.lo-h.lo+i] += c
	}
	if h.n == 0 || (other.min < h.min && other.n > 0) {
		h.min = other.min
	}
	h.n += other.n
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	if h.n == 0 {
		return "hist(empty)"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.n, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.max)
	return sb.String()
}
