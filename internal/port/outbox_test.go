package port

import (
	"testing"
	"time"
)

// fakePort implements Port with just enough behavior for Outbox keying;
// the Outbox only ever calls ID.
type fakePort struct{ id int }

func (f fakePort) ID() int                       { return f.id }
func (f fakePort) Now() Time                     { return 0 }
func (f fakePort) Rand() *Rand                   { return nil }
func (f fakePort) Advance(time.Duration)         {}
func (f fakePort) Pause(time.Duration)           {}
func (f fakePort) Send(Port, any, time.Duration) {}
func (f fakePort) Recv() Msg                     { return Msg{} }
func (f fakePort) TryRecv() (Msg, bool)          { return Msg{}, false }
func (f fakePort) RecvMatch(func(Msg) bool) Msg  { return Msg{} }

// snapshot copies the parts of an OutEntry a test wants to assert on after
// Flush returns — the entry's payload slice is outbox-owned and recycled as
// soon as the send callback finishes.
type snapshot struct {
	dst      int
	dstTag   int
	payloads []any
	bytes    int
	first    Time
}

func snap(e *OutEntry) snapshot {
	return snapshot{
		dst:      e.Dst.ID(),
		dstTag:   e.DstTag,
		payloads: append([]any(nil), e.Payloads...),
		bytes:    e.Bytes,
		first:    e.First,
	}
}

func TestOutboxStagesPerDestinationInOrder(t *testing.T) {
	var o Outbox
	a, b := fakePort{id: 3}, fakePort{id: 7}
	o.Stage(a, 30, "a1", 10, 100)
	o.Stage(b, 70, "b1", 20, 200)
	o.Stage(a, 30, "a2", 5, 300)

	var flushed []snapshot
	o.Flush(func(e *OutEntry) { flushed = append(flushed, snap(e)) })

	if len(flushed) != 2 {
		t.Fatalf("flushed %d entries, want 2 (one per destination)", len(flushed))
	}
	// First-staged destination order: a before b.
	if flushed[0].dst != 3 || flushed[1].dst != 7 {
		t.Fatalf("destination order %d,%d, want 3,7", flushed[0].dst, flushed[1].dst)
	}
	if flushed[0].dstTag != 30 || flushed[1].dstTag != 70 {
		t.Fatalf("tags %d,%d, want 30,70", flushed[0].dstTag, flushed[1].dstTag)
	}
	if len(flushed[0].payloads) != 2 || flushed[0].payloads[0] != "a1" || flushed[0].payloads[1] != "a2" {
		t.Fatalf("a payloads %v, want [a1 a2] in staged order", flushed[0].payloads)
	}
	if flushed[0].bytes != 15 || flushed[1].bytes != 20 {
		t.Fatalf("bytes %d,%d, want 15,20", flushed[0].bytes, flushed[1].bytes)
	}
	// First carries the FIRST staging instant of each entry.
	if flushed[0].first != 100 || flushed[1].first != 200 {
		t.Fatalf("first instants %d,%d, want 100,200", flushed[0].first, flushed[1].first)
	}
}

func TestOutboxFlushResets(t *testing.T) {
	var o Outbox
	p := fakePort{id: 1}
	o.Stage(p, 1, "x", 8, 5)
	o.Flush(func(*OutEntry) {})
	calls := 0
	o.Flush(func(*OutEntry) { calls++ })
	if calls != 0 {
		t.Fatalf("a second flush sent %d entries, want 0", calls)
	}
	// Re-staging after a flush starts a fresh entry (recycled storage, fresh
	// content): new payloads, new byte count, new First instant.
	o.Stage(p, 1, "y", 4, 9)
	var got []snapshot
	o.Flush(func(e *OutEntry) { got = append(got, snap(e)) })
	if len(got) != 1 || len(got[0].payloads) != 1 || got[0].payloads[0] != "y" || got[0].bytes != 4 || got[0].first != 9 {
		t.Fatalf("second flush entries %+v, want one fresh entry [y]/4 bytes/first 9", got)
	}
}

func TestOutboxEmptyFlushIsNoop(t *testing.T) {
	var o Outbox
	calls := 0
	o.Flush(func(*OutEntry) { calls++ })
	if calls != 0 {
		t.Fatalf("empty flush invoked send %d times", calls)
	}
}

// TestOutboxStageAllocFree: steady-state staging and flushing allocates
// nothing once the outbox's storage has warmed up.
func TestOutboxStageAllocFree(t *testing.T) {
	var o Outbox
	// Pre-boxed interfaces: real callers hold ports as interfaces already, so
	// the conversion cost at the Stage call site is not the outbox's to pay.
	var a, b Port = fakePort{id: 1}, fakePort{id: 2}
	var payload any = "p"
	warm := func() {
		o.Stage(a, 1, payload, 8, 0)
		o.Stage(b, 2, payload, 8, 0)
		o.Stage(a, 1, payload, 8, 0)
		o.Flush(func(*OutEntry) {})
	}
	warm()
	if n := testing.AllocsPerRun(100, warm); n != 0 {
		t.Fatalf("Stage+Flush allocates %v per cycle in steady state, want 0", n)
	}
}
