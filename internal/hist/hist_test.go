package hist

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/port"
)

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("zero value not empty")
	}
	if h.String() != "hist(empty)" {
		t.Fatalf("String = %q", h.String())
	}
}

func TestBasicStats(t *testing.T) {
	var h Histogram
	for _, d := range []port.Time{100, 200, 300, 400} {
		h.Observe(d)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 250 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Max() != 400 || h.Min() != 100 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestNegativeClampedToZeroBucket(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Count() != 1 || h.Max() != 0 {
		t.Fatal("negative observation mishandled")
	}
}

func TestQuantileApproximation(t *testing.T) {
	// Quantiles are bucket lower bounds: within ~19% below the true value.
	var h Histogram
	var vals []port.Time
	r := port.NewRand(1)
	for i := 0; i < 10000; i++ {
		v := port.Time(r.Intn(1_000_000) + 1)
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := vals[int(q*float64(len(vals)))-1]
		got := h.Quantile(q)
		lo := port.Time(float64(want) * 0.75)
		hi := port.Time(float64(want) * 1.05)
		if got < lo || got > hi {
			t.Errorf("q%.2f = %v, want within [%v, %v] of %v", q, got, lo, hi, want)
		}
	}
}

func TestQuantileBoundsClamped(t *testing.T) {
	var h Histogram
	h.Observe(100)
	if h.Quantile(-1) != h.Quantile(0) {
		t.Error("q<0 not clamped")
	}
	if h.Quantile(2) < h.Quantile(1) {
		t.Error("q>1 not clamped")
	}
}

func TestMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(10)
	a.Observe(20)
	b.Observe(5)
	b.Observe(1000)
	a.Merge(&b)
	if a.Count() != 4 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 5 || a.Max() != 1000 {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	a.Merge(nil) // must not panic
	var empty Histogram
	a.Merge(&empty)
	if a.Count() != 4 {
		t.Fatal("merging empty changed count")
	}
}

func TestBucketMonotonicProperty(t *testing.T) {
	if err := quick.Check(func(a, b uint32) bool {
		x, y := port.Time(a), port.Time(b)
		if x > y {
			x, y = y, x
		}
		return bucketOf(x) <= bucketOf(y)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBucketLowIsLowerBoundProperty(t *testing.T) {
	if err := quick.Check(func(v uint32) bool {
		d := port.Time(v) + 1
		b := bucketOf(d)
		return bucketLow(b) <= d
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormat(t *testing.T) {
	var h Histogram
	h.Observe(1000)
	s := h.String()
	for _, want := range []string{"n=1", "mean=1µs", "max=1µs"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

// TestQuantileNeverExceedsMax: every quantile is a bucket's lower bound, so
// none lies above the largest observation — not even for durations of 0,
// whose bucket also holds 1 ns.
func TestQuantileNeverExceedsMax(t *testing.T) {
	for _, obs := range [][]port.Time{{0}, {0, 0, 0}, {-3, 0}, {1}, {0, 1}, {2, 3}, {7, 1 << 40}} {
		var h Histogram
		for _, d := range obs {
			h.Observe(d)
		}
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			if got := h.Quantile(q); got > h.Max() {
				t.Errorf("%v: Quantile(%v) = %v above Max %v", obs, q, got, h.Max())
			}
		}
	}
}

// TestWindowStaysSmall: a histogram whose values stay within 24 octaves
// stores only its first window of buckets; one far outside widens it.
func TestWindowStaysSmall(t *testing.T) {
	var h Histogram
	for d := port.Time(1000); d < 1000<<20; d *= 2 {
		h.Observe(d)
	}
	if len(h.counts) != window {
		t.Fatalf("%d buckets stored for values within 24 octaves, want %d", len(h.counts), window)
	}
	h.Observe(1 << 62)
	if len(h.counts) <= window || h.Quantile(1) != bucketLow(bucketOf(1<<62)) {
		t.Fatalf("window %d buckets from %d after an outlier; p100 = %v", len(h.counts), h.lo, h.Quantile(1))
	}
}

// fixedHist is the model FuzzHistogram holds Histogram to: every one of the
// maxBuckets buckets stored, as Histogram did before it kept a window.
type fixedHist struct {
	counts        [maxBuckets]uint64
	n             uint64
	sum, max, min port.Time
}

func (h *fixedHist) observe(d port.Time) {
	d = max(d, 0)
	h.counts[bucketOf(d)]++
	h.n++
	h.sum += d
	h.max = max(h.max, d)
	if h.n == 1 || d < h.min {
		h.min = d
	}
}

func (h *fixedHist) merge(o *fixedHist) {
	if o.n == 0 {
		return
	}
	for b, c := range o.counts {
		h.counts[b] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	h.n += o.n
	h.sum += o.sum
	h.max = max(h.max, o.max)
}

func (h *fixedHist) quantile(q float64) port.Time {
	if h.n == 0 {
		return 0
	}
	target := max(uint64(math.Ceil(q*float64(h.n))), 1)
	var cum uint64
	for b, c := range h.counts {
		if cum += c; cum >= target {
			return bucketLow(b)
		}
	}
	return h.max
}

func (h *fixedHist) String() string {
	if h.n == 0 {
		return "hist(empty)"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.n, h.sum/port.Time(h.n), h.quantile(0.50), h.quantile(0.95), h.quantile(0.99), h.max)
}

// FuzzHistogram drives two windowed histograms and their fixed-bucket models
// with the same Observe and Merge sequence — nine bytes an op: the op and a
// duration — and requires every reading to agree after each op.
func FuzzHistogram(f *testing.F) {
	op := func(kind byte, d int64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{kind}, uint64(d))
	}
	f.Add(slices.Concat(op(0, 0), op(0, 1), op(0, 1000), op(1, 1<<40), op(2, 0), op(0, -5)))
	f.Add(slices.Concat(op(1, 3), op(1, 1<<62), op(3, 0), op(0, 1<<20), op(0, 7), op(2, 0)))
	f.Add(slices.Concat(op(0, 1<<30), op(1, 2), op(2, 0), op(2, 0), op(0, math.MaxInt64), op(3, 0)))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var a, b Histogram
		var ma, mb fixedHist
		for i := 0; i+8 < len(ops); i += 9 {
			d := port.Time(binary.LittleEndian.Uint64(ops[i+1:]))
			switch ops[i] % 4 {
			case 0:
				a.Observe(d)
				ma.observe(d)
			case 1:
				b.Observe(d)
				mb.observe(d)
			case 2:
				a.Merge(&b)
				ma.merge(&mb)
			default:
				b.Merge(&a)
				mb.merge(&ma)
			}
			for _, h := range []struct {
				got  *Histogram
				want *fixedHist
			}{{&a, &ma}, {&b, &mb}} {
				g, w := h.got, h.want
				if g.Count() != w.n || g.Min() != w.min || g.Max() != w.max || g.String() != w.String() {
					t.Fatalf("op %d: %s min %v; model %s min %v", i/9, g, g.Min(), w, w.min)
				}
				if w.n > 0 && g.Mean() != w.sum/port.Time(w.n) {
					t.Fatalf("op %d: mean %v; model %v", i/9, g.Mean(), w.sum/port.Time(w.n))
				}
				for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
					if g.Quantile(q) != w.quantile(q) {
						t.Fatalf("op %d: Quantile(%v) = %v; model %v", i/9, q, g.Quantile(q), w.quantile(q))
					}
				}
			}
		}
	})
}
