package main

import (
	"bufio"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
)

// Benchmark-side spans, recorded around the calls a worker makes into the
// library. One operation is a tree:
//
//	op                      issue -> Atomic returns
//	└─ attempt (1..n)       body invoked -> next body invocation, or -> op end
//	   ├─ read              one TArray.Get
//	   ├─ write             one TArray.Set
//	   └─ commit            body returned -> Atomic returned (last attempt)
//
// Self time is a span minus its children, so an op's time splits exactly
// into: begin (op self), retry (every aborted attempt, whole), and the
// committing attempt's read + write + commit + body self.
//
// Totals are accumulated for every op of the window; the span records
// themselves are kept only for the first ops that fit the pre-allocated
// buffer, which is what the trace file holds.

type spanKind uint8

const (
	spanOp spanKind = iota
	spanAttempt
	spanRead
	spanWrite
	spanCommit
)

var spanNames = [...]string{"op", "core.attempt", "core.read", "core.write", "core.commit"}

type span struct {
	worker     uint16
	kind       spanKind
	aborted    bool
	id, parent uint32 // span ids are per op; the op span is 0 and its own parent
	op         uint64
	start, end sim.Time
}

// spanTotals sums self times (ns on the backend's clock) over the ops of a
// window.
type spanTotals struct {
	ops, attempts                                   uint64
	op, begin, retry, read, write, commit, bodySelf sim.Time
}

func (t *spanTotals) add(o *spanTotals) {
	t.ops += o.ops
	t.attempts += o.attempts
	t.op += o.op
	t.begin += o.begin
	t.retry += o.retry
	t.read += o.read
	t.write += o.write
	t.commit += o.commit
	t.bodySelf += o.bodySelf
}

// keepSpans is the number of span records a traced round retains, shared
// among its workers.
const keepSpans = 1 << 16

// opReserve is the room an op must find in the buffer to be kept; an op that
// still overflows (a long scan retried many times) is dropped whole.
const opReserve = 64

type spanRec struct {
	worker int
	clock  core.Port
	tot    spanTotals
	keep   []span

	// The op in flight.
	opSeq    uint64
	opStart  sim.Time
	attStart sim.Time
	bodyEnd  sim.Time
	attempts uint64
	retry    sim.Time
	read     sim.Time
	write    sim.Time
	attID    uint32
	nextID   uint32
	keeping  bool
	opFirst  int // len(keep) when the op began
}

func newSpanRec(worker, capacity int) *spanRec {
	return &spanRec{worker: worker, keep: make([]span, 0, capacity)}
}

func (r *spanRec) put(k spanKind, id, parent uint32, start, end sim.Time, aborted bool) {
	if !r.keeping {
		return
	}
	if len(r.keep) == cap(r.keep) {
		r.dropOp()
		r.keeping = false
		return
	}
	r.keep = append(r.keep, span{
		worker: uint16(r.worker), kind: k, aborted: aborted,
		id: id, parent: parent, op: r.opSeq, start: start, end: end,
	})
}

func (r *spanRec) opBegin(t sim.Time) {
	r.opSeq++
	r.opStart = t
	r.attempts, r.retry = 0, 0
	r.nextID = 1
	r.opFirst = len(r.keep)
	r.keeping = cap(r.keep)-len(r.keep) >= opReserve
}

// dropOp forgets the spans of the op in flight: the one that straddles the
// end of the window never reaches opEnd.
func (r *spanRec) dropOp() { r.keep = r.keep[:r.opFirst] }

// attempt marks a body invocation: it closes the previous attempt of this
// op, if there was one, as aborted.
func (r *spanRec) attempt() {
	t := r.clock.Now()
	if r.attempts > 0 {
		r.retry += t - r.attStart
		r.put(spanAttempt, r.attID, 0, r.attStart, t, true)
	}
	r.attempts++
	r.attStart = t
	r.read, r.write = 0, 0
	r.attID = r.nextID
	r.nextID++
}

func (r *spanRec) access(k spanKind, start, end sim.Time) {
	if k == spanRead {
		r.read += end - start
	} else {
		r.write += end - start
	}
	r.put(k, r.nextID, r.attID, start, end, false)
	r.nextID++
}

// bodyDone marks the body's normal return; what follows is the commit.
func (r *spanRec) bodyDone() { r.bodyEnd = r.clock.Now() }

func (r *spanRec) opEnd(t sim.Time) {
	r.put(spanCommit, r.nextID, r.attID, r.bodyEnd, t, false)
	r.put(spanAttempt, r.attID, 0, r.attStart, t, false)
	r.put(spanOp, 0, 0, r.opStart, t, false)
	tot := &r.tot
	tot.ops++
	tot.attempts += r.attempts
	tot.op += t - r.opStart
	tot.retry += r.retry
	tot.read += r.read
	tot.write += r.write
	tot.commit += t - r.bodyEnd
	tot.bodySelf += r.bodyEnd - r.attStart - r.read - r.write
	tot.begin += t - r.opStart - r.retry - (t - r.attStart)
}

// checkSpans verifies what the trace file promises: every kept op's spans
// nest (op ⊇ attempts ⊇ reads/writes/commit) and no two children of one
// span overlap — an attempt starts when the previous one ended, a commit
// when the last access returned. The two together are what make a span's
// self time (its duration minus its children's) non-negative and the self
// times of an op add up to the op's duration. Children are recorded in time
// order, so each is compared with the end of its previous sibling.
func checkSpans(kept []span) error {
	type key struct {
		worker uint16
		op     uint64
	}
	byOp := make(map[key][]span)
	for _, s := range kept {
		k := key{s.worker, s.op}
		byOp[k] = append(byOp[k], s)
	}
	for k, spans := range byOp {
		byID := make(map[uint32]span, len(spans))
		for _, s := range spans {
			byID[s.id] = s
		}
		if root, ok := byID[0]; !ok || root.kind != spanOp {
			return fmt.Errorf("worker %d op %d: no op span", k.worker, k.op)
		}
		lastEnd := make(map[uint32]sim.Time, len(spans)) // parent -> end of its latest child
		for _, s := range spans {
			if s.kind == spanOp {
				continue
			}
			p, ok := byID[s.parent]
			if !ok || s.start < p.start || s.end > p.end || s.end < s.start {
				return fmt.Errorf("worker %d op %d: span %d (%s) does not nest in its parent %d",
					k.worker, k.op, s.id, spanNames[s.kind], s.parent)
			}
			if prev, ok := lastEnd[s.parent]; ok && s.start < prev {
				return fmt.Errorf("worker %d op %d: span %d (%s) overlaps its previous sibling under %d",
					k.worker, k.op, s.id, spanNames[s.kind], s.parent)
			}
			lastEnd[s.parent] = s.end
		}
	}
	return nil
}

// writeSpans writes the kept spans as JSON lines.
func writeSpans(path, workload string, kept []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range kept {
		fmt.Fprintf(bw, `{"workload":%q,"worker":%d,"op":%d,"span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"aborted":%t}`+"\n",
			workload, s.worker, s.op, s.id, s.parent, spanNames[s.kind], s.start, s.end, s.aborted)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
