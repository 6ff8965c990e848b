package hist

import (
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
