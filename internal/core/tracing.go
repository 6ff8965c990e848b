package core

import (
	"fmt"

	"repro/internal/placement"
	"repro/internal/port"
	"repro/internal/trace"
)

// Flight-recorder wiring (Config.Trace; see internal/trace). Every emit
// site below and across tx.go/rpc.go/tl2.go/dtm.go funnels through the two
// helpers here, whose trace-off fast path is exactly one nil comparison:
// Now() is only evaluated with tracing on, no time is advanced, no
// randomness is drawn, and nothing allocates — which is why trace-off runs
// stay bit-identical to the pinned figure fingerprints and trace-on sim
// runs stay deterministic.

// appActor is an application runtime's trace lane: its physical core ID.
func appActor(core int) int32 { return int32(core) }

// dtmActor is a DTM node's trace lane, offset so a multitasked core's two
// services get distinct lanes.
func dtmActor(core int) int32 { return trace.DTMActorBase + int32(core) }

// emit records one event on the runtime's lane; a no-op when tracing is
// off.
func (rt *Runtime) emit(k trace.Kind, txID, a, b, c uint64) {
	if rt.rec == nil {
		return
	}
	rt.rec.Emit(rt.proc.Now(), k, txID, a, b, c)
}

// emit records one event on the node's lane, stamped with the serving
// port's clock; a no-op when tracing is off.
func (n *dtmNode) emit(p port.Port, k trace.Kind, txID, a, b, c uint64) {
	if n.rec == nil {
		return
	}
	n.rec.Emit(p.Now(), k, txID, a, b, c)
}

// now is the backend-neutral current time for emit sites that run outside
// any port context: the placement tracer (caller context, directory lock
// held).
func (s *System) now() port.Time {
	if s.host != nil {
		return s.host.Now()
	}
	return s.K.Now()
}

// setupTrace allocates the per-DTM-node recorders and the placement lane;
// called from NewSystem once the nodes and directory exist, before any port
// is spawned.
func (s *System) setupTrace() {
	if s.cfg.Trace == nil {
		return
	}
	for _, n := range s.nodes {
		n.rec = trace.NewRecorder(dtmActor(n.core), s.cfg.Trace.ActorEvents)
	}
	if s.dir != nil {
		rec := trace.NewRecorder(trace.PlacementActor, s.cfg.Trace.ActorEvents)
		s.placeRec = rec
		s.dir.SetTracer(func(op placement.TraceOp, stripe, from, to int) {
			k := trace.KFreeze
			if op == placement.TraceHandoff {
				k = trace.KHandoff
			}
			// The directory lock serializes these calls, so the recorder
			// keeps its single-writer discipline on the live backend.
			rec.Emit(s.now(), k, 0, uint64(stripe), uint64(from), uint64(to))
		})
	}
}

// Trace returns the flight record assembled after the run quiesced, or nil
// when Config.Trace was unset. Valid only after Run.
func (s *System) Trace() *trace.Trace { return s.traceOut }

// assembleTrace merges every lane's ring into one Trace, in a fixed order
// (app runtimes, DTM nodes, placement) so identical sim runs produce
// identical traces, and hands it to the configured Sink.
func (s *System) assembleTrace() {
	if s.cfg.Trace == nil {
		return
	}
	t := trace.New()
	for _, rt := range s.runtimes {
		t.Add(rt.rec, fmt.Sprintf("app%d", rt.core))
	}
	for _, n := range s.nodes {
		t.Add(n.rec, fmt.Sprintf("dtm%d", n.core))
	}
	t.Add(s.placeRec, "placement")
	t.Finish()
	s.traceOut = t
	if s.cfg.Trace.Sink != nil {
		s.cfg.Trace.Sink(t)
	}
}
