package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one Chrome trace_event record. Field order (and the
// absence of maps except Args, which encoding/json key-sorts) keeps the
// rendered bytes deterministic for golden-file tests.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

var cmKindNames = [...]string{1: "RAW", 2: "WAW", 3: "WAR"} // by cm.Kind + 1

func kindName(enc uint64) string { return name(cmKindNames[:], enc) }

// micros converts a nanosecond virtual/wall timestamp to trace_event
// microseconds.
func micros(ns int64) float64 { return float64(ns) / 1e3 }

type openSpan struct {
	ev    chromeEvent
	phase Phase // valid only for phase spans
}

// WriteChrome renders the trace as Chrome trace_event JSON, loadable in
// chrome://tracing or Perfetto. Each actor gets one lane (thread):
// transaction attempts and commit phases become nested duration spans,
// lock request→grant/NACK pairs become flow arrows between the app and DTM
// lanes, and aborts, doomed reads, committed writes, clock ticks, freezes
// and handoffs become instant events. Wire sends are left out, as noise at
// chrome scale, and a KRead becomes an event only when its key is held by
// more than a plain read's (locked ahead by a scan, or write-locked for
// update), to keep the render small; WriteText includes every event.
func WriteChrome(w io.Writer, t *Trace) error {
	var out []chromeEvent

	// Lane metadata, in sorted actor order for deterministic bytes.
	actors := make([]int32, 0, len(t.Labels))
	for a := range t.Labels {
		actors = append(actors, a)
	}
	sort.Slice(actors, func(i, j int) bool { return actors[i] < actors[j] })
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "tm2c"},
	})
	for _, a := range actors {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: int64(a),
			Args: map[string]any{"name": t.Labels[a]},
		})
	}

	var maxTs int64
	for i := range t.Events {
		if ns := int64(t.Events[i].At); ns > maxTs {
			maxTs = ns
		}
	}

	attempts := make(map[int32]openSpan) // one live attempt per app lane
	phases := make(map[int32][]openSpan) // nested commit phases per lane
	closeSpan := func(sp openSpan, endNs int64, args map[string]any) {
		d := micros(endNs) - sp.ev.Ts
		sp.ev.Dur = &d
		if args != nil {
			sp.ev.Args = args
		}
		out = append(out, sp.ev)
	}
	closePhasesAbove := func(actor int32, endNs int64) {
		for _, sp := range phases[actor] {
			closeSpan(sp, endNs, nil)
		}
		phases[actor] = phases[actor][:0]
	}

	for i := range t.Events {
		e := &t.Events[i]
		ts := micros(int64(e.At))
		tid := int64(e.Actor)
		switch e.Kind {
		case KAttemptStart:
			// A fresh attempt implicitly closes a dangling one (abort
			// events can be lost to ring wrap).
			if sp, ok := attempts[e.Actor]; ok {
				closePhasesAbove(e.Actor, int64(e.At))
				closeSpan(sp, int64(e.At), map[string]any{"outcome": "lost"})
			}
			attempts[e.Actor] = openSpan{ev: chromeEvent{
				Name: fmt.Sprintf("tx %d #%d", e.TxID, e.A),
				Cat:  "tx", Ph: "X", Ts: ts, Pid: 1, Tid: tid,
			}}
		case KCommit:
			closePhasesAbove(e.Actor, int64(e.At))
			if sp, ok := attempts[e.Actor]; ok {
				delete(attempts, e.Actor)
				closeSpan(sp, int64(e.At), map[string]any{"outcome": "commit", "attempts": e.A})
			}
		case KAbort:
			closePhasesAbove(e.Actor, int64(e.At))
			args := map[string]any{"outcome": "abort", "reason": Reason(e.A).String()}
			if k := kindName(e.B); k != "" {
				args["kind"] = k
			}
			if sp, ok := attempts[e.Actor]; ok {
				delete(attempts, e.Actor)
				closeSpan(sp, int64(e.At), args)
			}
			out = append(out, chromeEvent{
				Name: "abort: " + Reason(e.A).String(),
				Cat:  "abort", Ph: "i", Ts: ts, Pid: 1, Tid: tid, S: "t",
				Args: map[string]any{"tx": e.TxID, "reason": Reason(e.A).String()},
			})
		case KPhaseBegin:
			phases[e.Actor] = append(phases[e.Actor], openSpan{
				phase: Phase(e.A),
				ev: chromeEvent{
					Name: Phase(e.A).String(),
					Cat:  "phase", Ph: "X", Ts: ts, Pid: 1, Tid: tid,
				},
			})
		case KPhaseEnd:
			st := phases[e.Actor]
			for len(st) > 0 {
				sp := st[len(st)-1]
				st = st[:len(st)-1]
				closeSpan(sp, int64(e.At), nil)
				if sp.phase == Phase(e.A) {
					break
				}
			}
			phases[e.Actor] = st
		case KRead:
			if h, _ := ReadParts(e.C); h == HoldAhead || h == HoldUpdate {
				out = append(out, chromeEvent{
					Name: "read", Cat: "read", Ph: "i", Ts: ts, Pid: 1, Tid: tid, S: "t",
					Args: map[string]any{"tx": e.TxID, "key": e.A, "held": h.String()},
				})
			}
		case KWrite:
			out = append(out, chromeEvent{
				Name: "write", Cat: "write", Ph: "i", Ts: ts, Pid: 1, Tid: tid, S: "t",
				Args: map[string]any{"tx": e.TxID, "key": e.A},
			})
		case KDoomedRead:
			out = append(out, chromeEvent{
				Name: "doomed read",
				Cat:  "abort", Ph: "i", Ts: ts, Pid: 1, Tid: tid, S: "t",
				Args: map[string]any{"tx": e.TxID, "key": e.A},
			})
		case KLockReq:
			out = append(out, chromeEvent{
				Name: "lock", Cat: "lock", Ph: "s", Ts: ts, Pid: 1, Tid: tid,
				ID:   fmt.Sprintf("%x", e.A),
				Args: map[string]any{"tx": e.TxID, "key": e.B, "keys": e.C},
			})
		case KLockGrant, KLockNack, KLockStale:
			name, args := "grant", map[string]any{"tx": e.TxID}
			switch e.Kind {
			case KLockNack:
				name = "nack"
				if k := kindName(e.B + 1); k != "" {
					args["kind"] = k
				}
				if core, tx, ok := WinnerParts(e.C); ok {
					args["winner_core"], args["winner_tx"] = core, tx
				}
			case KLockStale:
				name = "stale-nack"
				args["epoch"] = e.B
				if e.C > 0 {
					args["owner"] = e.C - 1
				}
			default:
				args["keys"] = e.B
			}
			zero := 0.0
			out = append(out, chromeEvent{
				Name: name, Cat: "lock", Ph: "X", Ts: ts, Dur: &zero,
				Pid: 1, Tid: tid, Args: args,
			})
			out = append(out, chromeEvent{
				Name: "lock", Cat: "lock", Ph: "f", BP: "e", Ts: ts,
				Pid: 1, Tid: tid, ID: fmt.Sprintf("%x", e.A),
			})
		case KRevoke:
			victim, by, stale := RevokeParts(e.A)
			out = append(out, chromeEvent{
				Name: "revoke", Cat: "cm", Ph: "i", Ts: ts, Pid: 1, Tid: tid, S: "t",
				Args: map[string]any{"victim_core": victim, "victim_tx": e.B, "key": e.C,
					"by_core": by, "by_tx": e.TxID, "stale": stale},
			})
		case KClockTick:
			out = append(out, chromeEvent{
				Name: "clock tick", Cat: "tl2", Ph: "i", Ts: ts, Pid: 1, Tid: tid, S: "t",
				Args: map[string]any{"tx": e.TxID, "wv": e.A},
			})
		case KFreeze:
			out = append(out, chromeEvent{
				Name: "freeze", Cat: "placement", Ph: "i", Ts: ts, Pid: 1, Tid: tid, S: "t",
				Args: map[string]any{"stripe": e.A, "from": e.B, "to": e.C},
			})
		case KHandoff:
			out = append(out, chromeEvent{
				Name: "handoff", Cat: "placement", Ph: "i", Ts: ts, Pid: 1, Tid: tid, S: "t",
				Args: map[string]any{"stripe": e.A, "from": e.B, "to": e.C},
			})
		}
	}

	// Close anything still open at the end of the recorded window.
	var openActors []int32
	for a := range attempts {
		openActors = append(openActors, a)
	}
	for a := range phases {
		if len(phases[a]) > 0 {
			openActors = append(openActors, a)
		}
	}
	sort.Slice(openActors, func(i, j int) bool { return openActors[i] < openActors[j] })
	seen := make(map[int32]bool)
	for _, a := range openActors {
		if seen[a] {
			continue
		}
		seen[a] = true
		closePhasesAbove(a, maxTs)
		if sp, ok := attempts[a]; ok {
			closeSpan(sp, maxTs, map[string]any{"outcome": "open"})
		}
	}

	data, err := json.MarshalIndent(chromeFile{TraceEvents: out, DisplayTimeUnit: "ns"}, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
