// Package mapreduce implements the MapReduce-like letter-counting
// application of §5.4: workers atomically grab chunks of a text input,
// count letter occurrences locally, and transactionally merge their counts
// into a global histogram. TM2C replaces the master node of a classical
// MapReduce: chunk allocation and statistics updates are transactions over
// two shared objects (a cursor and the histogram).
//
// The paper uses 256 MB-1 GB text files; we do not have them, so the input
// is synthetic: each chunk's letters are generated from a PRNG seeded by
// (seed, chunk offset), which makes the counting work real and the expected
// totals verifiable, at any size. Sizes are scaled down by the harness
// (internal/exp mrSize; README "Reproducing the paper's figures").
package mapreduce

import (
	"time"

	"repro/internal/core"
	"repro/internal/port"
)

// Letters is the alphabet size of the histogram.
const Letters = 26

// PerByteCompute is the nominal per-byte counting cost on the 533 MHz P54C.
// Calibrated from Figure 6(a): 256 MB sequential takes ~180 s on one core,
// i.e. ~0.7 µs/byte (~370 cycles) — plausible for byte-indexed histogram
// code with uncached memory on an in-order Pentium. This constant sets the
// compute/merge balance that gives MapReduce its near-linear scaling (the
// transactional load is low relative to counting, §5.4).
const PerByteCompute = 700 * time.Nanosecond

// CachePenalty multiplies the per-byte cost when the chunk exceeds the
// usable L1 data cache. Each SCC core has 16 KB of L1D shared with the OS,
// so "it is not fully available" to the application (§5.4) — chunks above
// 8 KB thrash.
const (
	UsableL1      = 8 << 10
	CachePenalty  = 1.6
	smallOverhead = 2 * time.Microsecond // per-chunk dispatch bookkeeping
)

// Histogram is the per-letter count vector, stored in shared memory as one
// Letters-word object under a single lock.
type Histogram [Letters]uint64

// histCodec translates a Histogram to and from its Letters-word layout.
var histCodec = core.FuncCodec(Letters,
	func(h Histogram, dst []uint64) { copy(dst, h[:]) },
	func(src []uint64) (h Histogram) { copy(h[:], src); return h },
)

// Job is one letter-count run over a synthetic input.
type Job struct {
	sys   *core.System
	seed  uint64
	size  int // input bytes
	chunk int // chunk bytes

	cursor core.TVar[uint64]    // next unprocessed offset
	hist   core.TVar[Histogram] // global letter counts
}

// NewJob allocates the shared cursor and histogram for an input of size
// bytes processed in chunk-byte units.
func NewJob(sys *core.System, seed uint64, size, chunk int) *Job {
	if chunk <= 0 || size < 0 {
		panic("mapreduce: invalid size/chunk")
	}
	return &Job{
		sys:    sys,
		seed:   seed,
		size:   size,
		chunk:  chunk,
		cursor: core.NewTVar(sys, core.Uint64Codec(), 0),
		hist:   core.NewTVar(sys, histCodec, Histogram{}),
	}
}

// countChunk deterministically generates the chunk at offset and counts its
// letters. The same bytes are produced no matter which core processes the
// chunk, so the final histogram is verifiable.
func (j *Job) countChunk(offset, n int) Histogram {
	var counts Histogram
	r := port.NewRand(j.seed ^ uint64(offset)*0x9e3779b97f4a7c15)
	// Generate 8 letters per PRNG draw.
	for i := 0; i < n; i += 8 {
		x := r.Uint64()
		for b := 0; b < 8 && i+b < n; b++ {
			counts[byte(x)%Letters]++
			x >>= 8
		}
	}
	return counts
}

// chunkCompute is the virtual time charged for counting n bytes.
func (j *Job) chunkCompute(n int) time.Duration {
	d := time.Duration(n) * PerByteCompute
	if j.chunk > UsableL1 {
		d = time.Duration(float64(d) * CachePenalty)
	}
	return d + smallOverhead
}

// Worker processes chunks until the input is exhausted (or the system
// deadline passes). It returns the number of bytes this worker processed.
func (j *Job) Worker(rt *core.Runtime) int {
	processed := 0
	for !rt.Stopped() {
		// Grab the next chunk: a tiny transaction on the shared cursor
		// (this is what removes the master node, §5.4).
		var off int
		rt.Run(func(tx *core.Tx) {
			off = int(j.cursor.Get(tx))
			if off >= j.size {
				return
			}
			j.cursor.Set(tx, uint64(off+j.chunk))
		})
		if off >= j.size {
			return processed
		}
		n := j.chunk
		if off+n > j.size {
			n = j.size - off
		}
		// Map phase: local counting, charged as compute time.
		counts := j.countChunk(off, n)
		rt.Compute(j.chunkCompute(n))
		// Reduce phase: transactional merge into the global histogram.
		// The statistics are one 26-word object — a single lock grant and
		// a single persisted write, so merges expose their locks only
		// briefly and the transactional load stays low (§5.4).
		rt.Run(func(tx *core.Tx) {
			upd := j.hist.Get(tx)
			for l := 0; l < Letters; l++ {
				upd[l] += counts[l]
			}
			j.hist.Set(tx, upd)
		})
		rt.AddOps(1) // one chunk processed
		processed += n
	}
	return processed
}

// Sequential counts the whole input on one core with no transactions: a
// single streaming pass (the "bare sequential code" of the paper's speedup
// baselines). Streaming pays neither per-chunk dispatch overhead nor the
// L1 chunk penalty — those are artifacts of the parallel version's
// chunk-at-a-time processing — so the chunk-size trade-off of Figure 6(b)
// shows up in the speedups, as in the paper.
func (j *Job) Sequential(p core.Port, coreID int) port.Time {
	start := p.Now()
	var total Histogram
	for off := 0; off < j.size; off += j.chunk {
		n := j.chunk
		if off+n > j.size {
			n = j.size - off
		}
		counts := j.countChunk(off, n)
		for l := 0; l < Letters; l++ {
			total[l] += counts[l]
		}
	}
	p.Advance(j.sys.Platform().Compute(time.Duration(j.size) * PerByteCompute))
	// One final histogram store, no locking.
	upd := j.hist.GetRaw()
	for l := 0; l < Letters; l++ {
		upd[l] += total[l]
	}
	j.hist.SetDirect(p, coreID, upd)
	return p.Now() - start
}

// HistogramRaw returns the current histogram (verification).
func (j *Job) HistogramRaw() Histogram {
	return j.hist.GetRaw()
}

// HistogramTotal sums the histogram (must equal the processed bytes).
func (j *Job) HistogramTotal() uint64 {
	var sum uint64
	for _, v := range j.HistogramRaw() {
		sum += v
	}
	return sum
}

// Expected recomputes the ground-truth histogram off-line.
func (j *Job) Expected() Histogram {
	var total Histogram
	for off := 0; off < j.size; off += j.chunk {
		n := j.chunk
		if off+n > j.size {
			n = j.size - off
		}
		c := j.countChunk(off, n)
		for l := 0; l < Letters; l++ {
			total[l] += c[l]
		}
	}
	return total
}
