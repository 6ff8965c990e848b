package check

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/port"
	"repro/internal/trace"
)

const (
	normal  = 0 // a strict kind in these records
	elastic = 1 // an exempt one
)

func strictNormal(kind uint64) bool { return kind == normal }

// lane builds one application lane's record, one attempt at a time.
type lane struct {
	rec *trace.Recorder
	at  port.Time
}

func newLane(core int32) *lane { return &lane{rec: trace.NewRecorder(core, 64)} }

func (l *lane) emit(k trace.Kind, tx, a, b, c uint64) {
	l.at++
	l.rec.Emit(l.at, k, tx, a, b, c)
}

func (l *lane) start(tx, kind uint64) { l.emit(trace.KAttemptStart, tx, 1, kind, 0) }

func (l *lane) read(tx uint64, addr mem.Addr, vals ...uint64) {
	l.emit(trace.KRead, tx, uint64(addr), trace.ValueWord(vals), trace.ReadWord(trace.HoldRead, len(vals)))
}

func (l *lane) write(tx uint64, addr mem.Addr, vals ...uint64) {
	l.emit(trace.KWrite, tx, uint64(addr), trace.ValueWord(vals), uint64(len(vals)))
}

func (l *lane) commit(tx uint64, at port.Time, seq uint64) {
	l.emit(trace.KCommit, tx, 1, uint64(at), seq)
}

func merge(lanes ...*lane) *trace.Trace {
	t := trace.New()
	for i, l := range lanes {
		t.Add(l.rec, fmt.Sprintf("app%d", i))
	}
	t.Finish()
	return t
}

// TestReplayOrdersBySerialization: commits replay by their KCommit instant,
// then sequence, not by where the lanes emitted them.
func TestReplayOrdersBySerialization(t *testing.T) {
	a, b := newLane(0), newLane(1)
	a.start(1, normal)
	a.read(1, 100, 5) // serializes after b's write, though emitted first
	a.commit(1, 50, 2)
	b.start(1, normal)
	b.write(1, 100, 5)
	b.commit(1, 50, 1)
	if err := Replay(merge(a, b), nil, strictNormal); err != nil {
		t.Fatal(err)
	}
}

// TestReplayDiscardsAbortsAndExemptReads: an aborted attempt's reads and
// writes are not part of the history; an exempt kind's reads are not
// checked, but its writes enter the model.
func TestReplayDiscardsAbortsAndExemptReads(t *testing.T) {
	a := newLane(0)
	a.start(1, normal)
	a.read(1, 100, 9) // aborted: its stale read is not checked
	a.write(1, 100, 9)
	a.emit(trace.KAbort, 1, uint64(trace.ReasonConflict), 0, 0)
	a.start(2, elastic)
	a.read(2, 100, 3) // exempt
	a.write(2, 100, 1)
	a.commit(2, 10, 1)
	a.start(3, normal)
	a.read(3, 100, 1)
	a.commit(3, 20, 2)
	if err := Replay(merge(a), nil, strictNormal); err != nil {
		t.Fatal(err)
	}
}

// TestReplayHashesObjects: a two-word object's read is checked against the
// value word of its initial words, and then of the words last written.
func TestReplayHashesObjects(t *testing.T) {
	initial := map[mem.Addr]uint64{200: 1, 201: 2}
	a := newLane(0)
	a.start(1, normal)
	a.read(1, 200, 1, 2)
	a.write(1, 200, 3, 4)
	a.commit(1, 10, 1)
	a.start(2, normal)
	a.read(2, 200, 3, 5) // stale second word
	a.commit(2, 20, 2)
	err := Replay(merge(a), initial, strictNormal)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("Replay = %v, want a violation", err)
	}
	if v.TxID != 2 || v.Addr != 200 || v.Want != trace.ValueWord([]uint64{3, 4}) {
		t.Fatalf("violation %+v", v)
	}
}

// TestReplayRefusesWrappedAppLane: a lane the check reads must be whole; a
// DTM lane's drops do not matter to it.
func TestReplayRefusesWrappedAppLane(t *testing.T) {
	dtm := trace.NewRecorder(trace.DTMActorBase, 4)
	for i := range 10 {
		dtm.Emit(port.Time(i), trace.KLockGrant, 1, 0, 1, 0)
	}
	tr := trace.New()
	tr.Add(dtm, "dtm0")
	tr.Finish()
	if err := Replay(tr, nil, strictNormal); err != nil {
		t.Fatalf("a wrapped DTM lane failed the check: %v", err)
	}
	app := trace.NewRecorder(0, 4)
	for i := range 10 {
		app.Emit(port.Time(i), trace.KWireSend, 0, 1, 24, 0)
	}
	tr.Add(app, "app0")
	if err := Replay(tr, nil, strictNormal); err == nil || !strings.Contains(err.Error(), "lanes dropped 6 events") {
		t.Fatalf("Replay = %v, want app0's 6 dropped events counted", err)
	}
}
