package net

import (
	"fmt"
	"time"

	"repro/internal/port"
	"repro/internal/wire"
)

// Stub stands in for a port hosted by another rank. Only its identity (ID)
// and its role as a Send destination are usable here; everything execution-
// context-like panics — by replicated construction nothing on this rank
// should ever run on a remote core's port.
type Stub struct {
	id   int
	rank int
	name string
}

var _ port.Port = (*Stub)(nil)

// ID returns the spawn-order port identifier (agreed across ranks).
func (s *Stub) ID() int { return s.id }

func (s *Stub) remoteUse(method string) string {
	return fmt.Sprintf("net: %s on %q, a stub for rank %d — remote ports are Send destinations only", method, s.name, s.rank)
}

func (s *Stub) Now() port.Time                         { panic(s.remoteUse("Now")) }
func (s *Stub) Rand() *port.Rand                       { panic(s.remoteUse("Rand")) }
func (s *Stub) Advance(time.Duration)                  { panic(s.remoteUse("Advance")) }
func (s *Stub) Pause(time.Duration)                    { panic(s.remoteUse("Pause")) }
func (s *Stub) Send(port.Port, any, time.Duration)     { panic(s.remoteUse("Send")) }
func (s *Stub) Recv() port.Msg                         { panic(s.remoteUse("Recv")) }
func (s *Stub) TryRecv() (port.Msg, bool)              { panic(s.remoteUse("TryRecv")) }
func (s *Stub) RecvMatch(func(port.Msg) bool) port.Msg { panic(s.remoteUse("RecvMatch")) }

// sendRemote is the Host's remote-send hook: it serializes payload and
// writes it as one MSG frame on the connection to the rank hosting dst. A
// write failure (connection mid-reconnect) drops the message: the protocol's
// RPC deadlines absorb the loss.
func (e *Engine) sendRemote(src int, to port.Port, payload any) {
	dst, ok := to.(*Stub)
	if !ok {
		panic(fmt.Sprintf("net: Send to foreign port type %T", to))
	}
	enc := wire.GetEnc()
	enc.U32(uint32(dst.id))
	enc.U32(uint32(src))
	if err := wire.EncodePayload(enc, payload); err != nil {
		panic(err) // unregistered payload type: a protocol bug, not an I/O fault
	}
	wire.ReleasePayload(payload) // the bytes travel on; this rank is payload's final toucher
	err := e.links[dst.rank].write(frMsg, enc)
	wire.PutEnc(enc)
	if err != nil {
		e.Drops.Add(1)
	}
}
