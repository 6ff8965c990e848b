package trace

import (
	"bytes"
	"encoding/json"
	"maps"
	"strings"
	"testing"

	"repro/internal/port"
)

func TestRecorderBasic(t *testing.T) {
	r := NewRecorder(3, 8)
	for i := 0; i < 5; i++ {
		r.Emit(port.Time(i*10), KRead, 1, uint64(i), 0, 0)
	}
	if got := r.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	if got := r.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	evs := r.appendEvents(nil)
	for i, e := range evs {
		if e.A != uint64(i) || e.Actor != 3 || e.Kind != KRead {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
}

func TestRecorderWrap(t *testing.T) {
	r := NewRecorder(1, 8)
	for i := 0; i < 20; i++ {
		r.Emit(port.Time(i), KRead, 0, uint64(i), 0, 0)
	}
	if got := r.Len(); got != 8 {
		t.Fatalf("Len after wrap = %d, want 8", got)
	}
	if got := r.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	evs := r.appendEvents(nil)
	// The most recent window survives, in emission order.
	for i, e := range evs {
		if want := uint64(12 + i); e.A != want {
			t.Fatalf("event %d A = %d, want %d", i, e.A, want)
		}
	}
}

func TestRecorderCapacityRounding(t *testing.T) {
	r := NewRecorder(0, 100)
	if len(r.buf) != 128 {
		t.Fatalf("capacity 100 rounded to %d, want 128", len(r.buf))
	}
	r = NewRecorder(0, 0)
	if len(r.buf) != DefaultActorEvents {
		t.Fatalf("default capacity = %d, want %d", len(r.buf), DefaultActorEvents)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Emit(0, KCommit, 1, 2, 3, 4) // must not panic
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder reports non-zero state")
	}
	tr := New()
	tr.Add(r, "nil")
	tr.Finish()
	if len(tr.Events) != 0 {
		t.Fatal("nil recorder contributed events")
	}
}

// The flight recorder's hot path must not allocate: emitting with tracing
// on is a ring-slot write, and the trace-off path is one nil comparison.
func TestEmitAllocationFree(t *testing.T) {
	r := NewRecorder(0, 1024)
	if n := testing.AllocsPerRun(1000, func() {
		r.Emit(1, KRead, 2, 3, 4, 5)
	}); n != 0 {
		t.Fatalf("Emit allocates %v per call, want 0", n)
	}
	var nilRec *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		nilRec.Emit(1, KRead, 2, 3, 4, 5)
	}); n != 0 {
		t.Fatalf("nil Emit allocates %v per call, want 0", n)
	}
}

func TestTraceMergeSort(t *testing.T) {
	a := NewRecorder(0, 16)
	b := NewRecorder(DTMActorBase+4, 16)
	a.Emit(30, KCommit, 1, 1, 0, 0)
	a.Emit(10, KAttemptStart, 1, 1, 0, 0)
	b.Emit(20, KLockGrant, 1, 7, 1, 0)
	tr := New()
	tr.Add(a, "app0")
	tr.Add(b, "dtm4")
	tr.Finish()
	if len(tr.Events) != 3 {
		t.Fatalf("merged %d events, want 3", len(tr.Events))
	}
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].At < tr.Events[i-1].At {
			t.Fatalf("events not time-sorted: %v", tr.Events)
		}
	}
	if tr.Labels[0] != "app0" || tr.Labels[DTMActorBase+4] != "dtm4" {
		t.Fatalf("labels = %v", tr.Labels)
	}
}

func TestReasonStrings(t *testing.T) {
	want := map[Reason]string{
		ReasonConflict:       "conflict",
		ReasonRevoked:        "revoked",
		ReasonDoomedRead:     "doomed-read",
		ReasonStalePlacement: "stale-placement",
		ReasonUser:           "user",
		ReasonTimeout:        "timeout",
	}
	if len(Reasons()) != NumReasons {
		t.Fatalf("Reasons() lists %d, NumReasons = %d", len(Reasons()), NumReasons)
	}
	for _, r := range Reasons() {
		if r.String() != want[r] {
			t.Fatalf("Reason(%d).String() = %q, want %q", r, r, want[r])
		}
	}
}

// Build a tiny synthetic trace exercising every render path.
func syntheticTrace() *Trace {
	app := NewRecorder(2, 64)
	dtm := NewRecorder(DTMActorBase+8, 64)
	place := NewRecorder(PlacementActor, 64)
	flow := FlowID(2, 5)
	app.Emit(100, KAttemptStart, 7, 1, 0, 0)
	app.Emit(110, KRead, 7, 42, 0, uint64(HoldRead))
	app.Emit(112, KRead, 7, 43, 0, uint64(HoldAhead))
	app.Emit(114, KRead, 7, 44, 0, uint64(HoldUpdate))
	app.Emit(120, KLockReq, 7, flow, 42, 1)
	app.Emit(125, KWireSend, 7, 8, 24, 0)
	dtm.Emit(150, KLockNack, 7, flow, 1, WinnerWord(4, 3))
	app.Emit(180, KAbort, 7, uint64(ReasonConflict), 2, 0)
	app.Emit(200, KAttemptStart, 8, 1, 0, 0)
	app.Emit(210, KPhaseBegin, 8, uint64(PhaseScatter), 0, 0)
	app.Emit(220, KPhaseEnd, 8, uint64(PhaseScatter), 0, 0)
	app.Emit(221, KPhaseBegin, 8, uint64(PhaseGather), 0, 0)
	dtm.Emit(230, KLockGrant, 8, FlowID(2, 6), 2, 0)
	app.Emit(240, KPhaseEnd, 8, uint64(PhaseGather), 0, 0)
	app.Emit(245, KClockTick, 8, 17, 0, 0)
	app.Emit(246, KRead, 8, 45, 6, ReadWord(HoldInvisible, 2))
	app.Emit(248, KWrite, 8, 46, 5, 1)
	app.Emit(250, KCommit, 8, 2, 0, 0)
	dtm.Emit(260, KRevoke, 8, RevokeWord(5, 2, true), 9, 42)
	dtm.Emit(270, KLockStale, 9, FlowID(3, 1), 4, 11)
	app.Emit(280, KDoomedRead, 9, 13, 0, 0)
	place.Emit(300, KFreeze, 0, 6, 8, 10)
	place.Emit(320, KHandoff, 0, 6, 8, 10)
	tr := New()
	tr.Add(app, "app2")
	tr.Add(dtm, "dtm8")
	tr.Add(place, "placement")
	tr.Finish()
	return tr
}

func TestWriteChrome(t *testing.T) {
	tr := syntheticTrace()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	var abortSpan, abortInstant, flowStart, flowEnd, winner, write bool
	held := map[float64]string{} // key -> held, for the reads rendered
	for _, ev := range parsed.TraceEvents {
		name, _ := ev["name"].(string)
		ph, _ := ev["ph"].(string)
		if !strings.Contains("XisfM", ph) || len(ph) != 1 {
			t.Fatalf("event with unknown phase type %q: %v", ph, ev)
		}
		if ts, ok := ev["ts"].(float64); (!ok || ts < 0) && ph != "M" {
			t.Fatalf("event with missing or negative ts: %v", ev)
		}
		if args, ok := ev["args"].(map[string]any); ok && ph == "X" {
			if args["outcome"] == "abort" && args["reason"] == "conflict" {
				abortSpan = true
			}
			if name == "nack" && args["winner_core"] == 4.0 && args["winner_tx"] == 3.0 {
				winner = true
			}
		}
		if args, ok := ev["args"].(map[string]any); ok && name == "read" && ph == "i" {
			held[args["key"].(float64)], _ = args["held"].(string)
		}
		if args, ok := ev["args"].(map[string]any); ok && name == "write" && ph == "i" && args["key"] == 46.0 {
			write = true
		}
		if strings.HasPrefix(name, "abort:") && ph == "i" {
			abortInstant = true
		}
		if ph == "s" {
			flowStart = true
		}
		if ph == "f" {
			flowEnd = true
		}
	}
	if !abortSpan || !abortInstant {
		t.Fatalf("abort span/instant missing (span=%v instant=%v)", abortSpan, abortInstant)
	}
	if !flowStart || !flowEnd {
		t.Fatalf("flow arrow missing (s=%v f=%v)", flowStart, flowEnd)
	}
	if !winner {
		t.Fatal("nack naming its winner missing")
	}
	if !write {
		t.Fatal("committed write missing")
	}
	if want := map[float64]string{43: "locked-ahead", 44: "write-lock"}; !maps.Equal(held, want) {
		t.Fatalf("reads rendered %v, want %v: only the ones held by more than a plain read", held, want)
	}
}

func TestWriteText(t *testing.T) {
	tr := syntheticTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"ABORT reason=conflict kind=WAW",
		"read key=42 held=read-lock",
		"read key=43 held=locked-ahead",
		"read key=44 held=write-lock",
		"read key=45 held=invisible value=6 words=2",
		"write key=46 value=5 words=1",
		"doomed read key=13",
		"nack flow=2/5 kind=WAW winner core=4 tx=3",
		"stale-nack flow=3/1 epoch=4 owner=10",
		"wire send dst=8 bytes=24",
		"phase scatter {",
		"clock tick wv=17",
		"freeze stripe=6",
		"handoff stripe=6",
		"COMMIT attempts=2",
		"revoke victim core=5 tx=9 key=42 by core=2 tx=8 (finished)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text render missing %q in:\n%s", want, out)
		}
	}
}

// TestValueWord: a one-word object's value word is the word; a longer
// object's hashes every word, in order.
func TestValueWord(t *testing.T) {
	if w := ValueWord([]uint64{42}); w != 42 {
		t.Errorf("ValueWord of one word = %d, want 42", w)
	}
	a, b := ValueWord([]uint64{1, 2}), ValueWord([]uint64{2, 1})
	if a == b || a == ValueWord([]uint64{1, 3}) || a != ValueWord([]uint64{1, 2}) {
		t.Errorf("ValueWord does not tell two-word objects apart: %#x, %#x", a, b)
	}
	if h, words := ReadParts(ReadWord(HoldUpdate, 3)); h != HoldUpdate || words != 3 {
		t.Errorf("ReadWord(HoldUpdate, 3) unpacks to %v, %d", h, words)
	}
}

// TestRevokeWordRoundTrips: a KRevoke's A word gives back the victim, the
// revoker and the stale mark it was packed from.
func TestRevokeWordRoundTrips(t *testing.T) {
	for _, c := range []struct {
		victim, by int
		stale      bool
	}{{0, 0, false}, {5, 2, true}, {1<<31 - 1, 1<<31 - 1, true}, {47, 0, false}} {
		victim, by, stale := RevokeParts(RevokeWord(c.victim, c.by, c.stale))
		if victim != c.victim || by != c.by || stale != c.stale {
			t.Errorf("RevokeWord(%d, %d, %v) unpacks to %d, %d, %v", c.victim, c.by, c.stale, victim, by, stale)
		}
	}
}

// TestWinnerWordRoundTrips: a KLockNack's C word gives back the winner's
// core and attempt it was packed from, and 0 stands for a NACK that named
// none.
func TestWinnerWordRoundTrips(t *testing.T) {
	for _, c := range []struct {
		core int
		tx   uint64
	}{{0, 0}, {0, 1}, {4, 3}, {47, 1<<40 - 1}, {1<<23 - 2, 99}} {
		core, tx, ok := WinnerParts(WinnerWord(c.core, c.tx))
		if !ok || core != c.core || tx != c.tx {
			t.Errorf("WinnerWord(%d, %d) unpacks to %d, %d, %v", c.core, c.tx, core, tx, ok)
		}
	}
	if w := WinnerWord(-1, 7); w != 0 {
		t.Errorf("WinnerWord(-1, 7) = %d, want 0 for none", w)
	}
	if _, _, ok := WinnerParts(0); ok {
		t.Error("WinnerParts(0) names a winner")
	}
}
