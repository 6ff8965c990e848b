// Package check is an executable form of the correctness claim of §2:
// TM2C ensures atomic consistency (opacity) of transactions. It replays the
// committed attempts of a run's flight record in commit order against a
// model memory: every strict read must equal the model state at its
// transaction's commit point (view serializability at commit points, the
// heart of opacity for committed transactions; Ravi, "On the Cost of
// Concurrency in Transactional Memory"). Aborted attempts are discarded.
package check

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/mem"
	"repro/internal/port"
	"repro/internal/trace"
)

// Violation describes a serializability failure found by Replay. For an
// object of several words, Got and Want are value words (trace.ValueWord).
type Violation struct {
	Core   int
	TxID   uint64
	Commit port.Time
	Addr   mem.Addr
	Got    uint64 // value the transaction read
	Want   uint64 // value the serial replay holds at its commit point
}

func (v *Violation) Error() string {
	return fmt.Sprintf("check: tx (core %d, id %d) committed at %v read %#x=%d but the serial order holds %d",
		v.Core, v.TxID, v.Commit, uint64(v.Addr), v.Got, v.Want)
}

// attempt is one transaction attempt as its lane recorded it; its KWrites,
// emitted at write-back, follow all of its KReads.
type attempt struct {
	start, commit *trace.Event
	accesses      []*trace.Event // KRead and KWrite, in emission order
}

// Replay checks the committed attempts of t in commit order: the KCommit
// instant, then its sequence. strict reports whether a kind's reads must
// match the serial state; initial holds the words' pre-run values (zero if
// missing). It never skips what it cannot see: an application lane that
// lost events to ring wrap fails the check.
func Replay(t *trace.Trace, initial map[mem.Addr]uint64, strict func(kind uint64) bool) error {
	app := func(actor int32) bool { return actor >= 0 && actor < trace.DTMActorBase }
	var dropped uint64
	for lane, n := range t.LaneDropped {
		if app(lane) {
			dropped += n
		}
	}
	if dropped > 0 {
		return fmt.Errorf("check: application lanes dropped %d events to ring wrap", dropped)
	}
	open := make(map[[2]uint64]*attempt) // by lane and transaction ID
	var done []*attempt
	for i := range t.Events {
		e := &t.Events[i]
		k := [2]uint64{uint64(e.Actor), e.TxID}
		switch a := open[k]; {
		case !app(e.Actor):
		case e.Kind == trace.KAttemptStart:
			open[k] = &attempt{start: e}
		case a == nil:
		case e.Kind == trace.KRead || e.Kind == trace.KWrite:
			a.accesses = append(a.accesses, e)
		case e.Kind == trace.KAbort:
			delete(open, k)
		case e.Kind == trace.KCommit:
			a.commit = e
			done = append(done, a)
			delete(open, k)
		}
	}
	slices.SortStableFunc(done, func(a, b *attempt) int {
		return cmp.Or(cmp.Compare(a.commit.B, b.commit.B), cmp.Compare(a.commit.C, b.commit.C))
	})
	// The model maps an object's base to the value word last written: the
	// protocol locks an object by its base, so each has one base and size.
	model := make(map[mem.Addr]uint64)
	for _, a := range done {
		checked := strict(a.start.B)
		for _, e := range a.accesses {
			base := mem.Addr(e.A)
			if e.Kind == trace.KWrite {
				model[base] = e.B
				continue
			}
			want, ok := model[base]
			if !ok {
				_, words := trace.ReadParts(e.C)
				vals := make([]uint64, max(words, 1))
				for i := range vals {
					vals[i] = initial[base+mem.Addr(i)]
				}
				want = trace.ValueWord(vals)
			}
			if checked && e.B != want {
				return &Violation{Core: int(e.Actor), TxID: e.TxID, Commit: port.Time(a.commit.B), Addr: base, Got: e.B, Want: want}
			}
		}
	}
	return nil
}
