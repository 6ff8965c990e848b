package net

import (
	"bytes"
	"fmt"
	gonet "net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/mem"
	"repro/internal/port"
	"repro/internal/wire"
)

// helloMagic opens every handshake frame.
var helloMagic = [4]byte{'T', 'M', '2', 'C'}

// resolveAddr turns a configured per-rank address plus session into a
// concrete (network, address) pair. Unix sockets get a per-session path
// suffix so successive systems in one process never collide; TCP ports are
// offset by session*ranks (CLI fork mode hands out consecutive base ports
// per rank, so the stride keeps sessions disjoint).
func resolveAddr(addr string, session, ranks int) (string, string, error) {
	if p, ok := strings.CutPrefix(addr, "unix:"); ok {
		if p == "" {
			return "", "", fmt.Errorf("net: empty unix socket path in %q", addr)
		}
		if session > 0 {
			p = fmt.Sprintf("%s.s%d", p, session)
		}
		return "unix", p, nil
	}
	host, portStr, err := gonet.SplitHostPort(addr)
	if err != nil {
		return "", "", fmt.Errorf("net: address %q is neither unix:<path> nor host:port: %w", addr, err)
	}
	pn, err := strconv.Atoi(portStr)
	if err != nil {
		return "", "", fmt.Errorf("net: non-numeric port in %q", addr)
	}
	return "tcp", gonet.JoinHostPort(host, strconv.Itoa(pn+session*ranks)), nil
}

// link is the persistent connection to one peer rank. The higher-ranked
// side dials (and redials with backoff on failure); the lower-ranked side
// accepts (and swaps in replacement connections). Writers serialize on mu;
// one readLoop goroutine serves each physical connection.
type link struct {
	eng    *Engine
	peer   int
	dialer bool
	netw   string // peer's resolved network+address (dial side)
	addr   string

	mu      sync.Mutex
	conn    gonet.Conn
	closed  bool
	dialing bool
}

// waitConnected blocks until the link has a live connection (or deadline).
func (l *link) waitConnected(deadline time.Time) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.conn == nil && !l.closed {
		if time.Now().After(deadline) {
			return fmt.Errorf("net: rank %d: no connection to rank %d by %v",
				l.eng.cfg.Rank, l.peer, l.eng.cfg.ConnectTimeout)
		}
		// cond has no deadline wait; poke ourselves periodically.
		l.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		l.mu.Lock()
	}
	if l.closed {
		return fmt.Errorf("net: rank %d: link to rank %d closed during connect", l.eng.cfg.Rank, l.peer)
	}
	return nil
}

// write sends what enc holds as one frame — a single Write of the encoder's
// own bytes, so enc can be recycled once write returns — blocking while the
// link is mid-reconnect (bounded by ConnectTimeout — after that the frame is
// reported lost).
func (l *link) write(kind uint8, enc *wire.Enc) error {
	frame, err := enc.Frame(kind)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(l.eng.cfg.ConnectTimeout)
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.conn == nil && !l.closed {
		if time.Now().After(deadline) {
			return fmt.Errorf("net: rank %d: link to rank %d down", l.eng.cfg.Rank, l.peer)
		}
		l.mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		l.mu.Lock()
	}
	if l.closed {
		return fmt.Errorf("net: rank %d: link to rank %d closed", l.eng.cfg.Rank, l.peer)
	}
	c := l.conn
	if _, err := c.Write(frame); err != nil {
		l.dropLocked(c)
		return err
	}
	return nil
}

// dropLocked discards a failed connection and, on the dialing side, starts
// the redial loop. Called with mu held.
func (l *link) dropLocked(c gonet.Conn) {
	if l.conn != c {
		return // already replaced
	}
	l.conn = nil
	c.Close()
	if l.dialer && !l.closed && !l.dialing {
		l.dialing = true
		go l.redial()
	}
}

// setConn installs a fresh connection (handshake already complete) and
// starts its read loop.
func (l *link) setConn(c gonet.Conn) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		c.Close()
		return
	}
	old := l.conn
	l.conn = c
	l.mu.Unlock()
	if old != nil {
		old.Close()
	}
	go l.eng.readLoop(l, c)
}

func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	c := l.conn
	l.conn = nil
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// redial dials the peer with exponential backoff until connected, the link
// closes, or ConnectTimeout expires (which faults the engine: a peer that
// stays away that long is gone, and every RPC toward it would time out
// anyway).
func (l *link) redial() {
	e := l.eng
	backoff := 5 * time.Millisecond
	deadline := time.Now().Add(e.cfg.ConnectTimeout)
	for {
		l.mu.Lock()
		closed := l.closed
		l.mu.Unlock()
		if closed {
			return
		}
		c, err := gonet.DialTimeout(l.netw, l.addr, 2*time.Second)
		if err == nil {
			if err = l.handshake(c); err == nil {
				l.mu.Lock()
				l.dialing = false
				l.mu.Unlock()
				l.setConn(c)
				return
			}
			c.Close()
		}
		if time.Now().After(deadline) {
			e.Fail(fmt.Errorf("net: rank %d: cannot reach rank %d at %s: %v",
				e.cfg.Rank, l.peer, l.addr, err))
			l.mu.Lock()
			l.dialing = false
			l.mu.Unlock()
			return
		}
		time.Sleep(backoff)
		if backoff < 250*time.Millisecond {
			backoff *= 2
		}
	}
}

// handshake runs the dialer's side: send HELLO, read and validate the
// acceptor's HELLO.
func (l *link) handshake(c gonet.Conn) error {
	e := l.eng
	if err := wire.WriteFrame(c, frHello, helloBody(e.cfg.Rank, e.cfg.Session)); err != nil {
		return err
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer c.SetReadDeadline(time.Time{})
	kind, body, err := wire.ReadFrame(c)
	if err != nil {
		return err
	}
	rank, session, err := parseHello(kind, body)
	if err != nil {
		return err
	}
	if rank != l.peer || session != e.cfg.Session {
		return fmt.Errorf("net: dialed rank %d session %d but peer says rank %d session %d",
			l.peer, e.cfg.Session, rank, session)
	}
	return nil
}

func helloBody(rank, session int) []byte {
	enc := wire.NewEnc(nil)
	enc.U8(helloMagic[0])
	enc.U8(helloMagic[1])
	enc.U8(helloMagic[2])
	enc.U8(helloMagic[3])
	enc.U16(wire.Version)
	enc.U32(uint32(rank))
	enc.U32(uint32(session))
	return enc.Bytes()
}

func parseHello(kind uint8, body []byte) (rank, session int, err error) {
	if kind != frHello {
		return 0, 0, fmt.Errorf("net: expected HELLO frame, got kind %d", kind)
	}
	d := wire.NewDec(body, nil)
	var magic [4]byte
	for i := range magic {
		magic[i] = d.U8()
	}
	ver := d.U16()
	rank = int(d.U32())
	session = int(d.U32())
	if d.Err() != nil {
		return 0, 0, d.Err()
	}
	if magic != helloMagic {
		return 0, 0, fmt.Errorf("net: bad handshake magic %q", magic[:])
	}
	if ver != wire.Version {
		return 0, 0, fmt.Errorf("net: wire version mismatch: peer %d, local %d", ver, wire.Version)
	}
	return rank, session, nil
}

// acceptLoop serves the listener: each incoming connection identifies its
// rank via HELLO and is installed on (or replaces) that rank's link.
func (e *Engine) acceptLoop(ln gonet.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go e.acceptConn(c)
	}
}

func (e *Engine) acceptConn(c gonet.Conn) {
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	kind, body, err := wire.ReadFrame(c)
	if err != nil {
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	rank, session, err := parseHello(kind, body)
	if err != nil || session != e.cfg.Session || rank <= e.cfg.Rank || rank >= e.cfg.Ranks {
		c.Close()
		return
	}
	if err := wire.WriteFrame(c, frHello, helloBody(e.cfg.Rank, e.cfg.Session)); err != nil {
		c.Close()
		return
	}
	e.links[rank].setConn(c)
}

// readLoop serves one physical connection until it breaks or the engine
// closes, dispatching every frame inline: port messages push into local
// mailboxes (never blocking — see port.HostPort.Push), state RPCs execute against
// the local memory/register owners, control frames feed the barriers.
func (e *Engine) readLoop(l *link, c gonet.Conn) {
	fr := wire.NewFrameReader(c)
	r := &connReader{l: l, dec: wire.Dec{Resolve: e.resolvePort}}
	for {
		kind, body, err := fr.Next()
		if err != nil {
			l.mu.Lock()
			if !l.closed {
				l.dropLocked(c)
			}
			l.mu.Unlock()
			return
		}
		r.handleFrame(kind, body)
	}
}

// connReader is what one readLoop reuses from frame to frame.
type connReader struct {
	l     *link
	dec   wire.Dec   // over the current body; resolves ports for MSG payloads
	addrs []mem.Addr // serveState's scratch: a write-back's addresses,
	words []uint64   // and its values or a batch read's words
}

// handleFrame dispatches one frame. body is only valid until it returns: a
// handler that keeps bytes (a state response, a control payload) copies them.
func (r *connReader) handleFrame(kind uint8, body []byte) {
	e, d := r.l.eng, &r.dec
	d.Reset(body)
	switch kind {
	case frMsg:
		dst, src := int(d.U32()), int(d.U32())
		payload, err := wire.DecodePayload(d)
		if err != nil {
			e.Fail(fmt.Errorf("net: rank %d: bad MSG frame from rank %d: %w", e.cfg.Rank, r.l.peer, err))
			return
		}
		p, ok := e.resolvePort(dst).(*port.HostPort)
		if !ok {
			e.Fail(fmt.Errorf("net: rank %d: MSG for port %d, which is not hosted here", e.cfg.Rank, dst))
			return
		}
		p.Push(port.Msg{From: src, Payload: payload})
	case frStateReq:
		r.serveState(body)
	case frStateResp:
		if corr := d.U64(); d.Err() == nil {
			e.completeCall(corr, body[8:])
		}
	case frCtrl:
		if len(body) > 0 && ctrlDone <= body[0] && body[0] <= ctrlStats {
			e.ctrl[body[0]] <- bytes.Clone(body[1:])
		}
	case frHello:
		// Duplicate HELLO on an established connection: ignore.
	default:
		e.Fail(fmt.Errorf("net: rank %d: unknown frame kind %d from rank %d", e.cfg.Rank, kind, r.l.peer))
	}
}
