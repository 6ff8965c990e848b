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
// sub-buckets per octave for ~19% resolution.
const (
	subBits    = 2
	subBuckets = 1 << subBits
	maxBuckets = 64 * subBuckets
)

// Histogram accumulates virtual durations. The zero value is ready to use.
type Histogram struct {
	counts [maxBuckets]uint64
	n      uint64
	sum    port.Time
	max    port.Time
	min    port.Time
}

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
	exp := b / subBuckets
	sub := b % subBuckets
	if exp < subBits {
		return port.Time(uint64(1) << uint(exp))
	}
	base := uint64(1) << uint(exp)
	return port.Time(base | uint64(sub)<<(uint(exp)-subBits))
}

// Observe records one duration.
func (h *Histogram) Observe(d port.Time) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)]++
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
	for b := 0; b < maxBuckets; b++ {
		cum += h.counts[b]
		if cum >= target {
			return bucketLow(b)
		}
	}
	return h.max
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.n == 0 {
		return
	}
	for b, c := range other.counts {
		h.counts[b] += c
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
