// Package net implements the cross-process execution backend of TM2C-Go:
// the system's cores are partitioned over separate OS processes ("ranks"),
// each rank hosts its share on the real-time port runtime the live backend
// also uses (port.Host), and messages to cores of other ranks travel as
// length-prefixed binary frames (internal/wire) over persistent TCP or
// Unix-domain connections. This package holds only what is about ranks:
// links, Stubs, the remote send, barriers, the state plane and the stats
// exchange.
//
// The backend relies on replicated construction: every rank builds the
// identical System from the identical Config (differing only in
// NetConfig.Rank), so spawn order — and therefore every port ID — agrees
// across processes without any name service. A port owned by another rank
// is represented by a Stub that serializes sends onto the owning rank's
// connection; everything else about the DTM protocol is unchanged.
//
// Shared state is partitioned the same way: memory words and allocation
// bump pointers are homed on rank 0, per-core status/TAS registers on the
// rank owning the core, both reached through synchronous state RPCs served
// directly by the connection readers (see state.go, mem.SetRemote).
//
// Buffer ownership: the per-frame path allocates nothing, because every
// buffer on it has one owner. A connection's readLoop owns its frame reader,
// decoder and scratch, and lends each frame's body to the handler until the
// next frame is read — a handler that keeps bytes (STATE_RESP, CTRL) copies
// them. A sender owns its pooled encoder until link.write's single Write
// returns. A state RPC owns a pooled stateCall slot until it has decoded
// its reply; one that times out or unwinds abandons the slot (see stateCall).
//
// Failure handling: a broken connection is redialed with backoff by the
// higher-ranked side while the acceptor swaps in the replacement; frames in
// flight at the moment of the break are lost, which the DTM layer absorbs
// through per-RPC deadlines (Config.RPCDeadline → ReasonTimeout aborts with
// conservative lock release). Shutdown is drain-then-close: ranks first
// agree every worker finished (DONE barrier), then flush their connections
// (DRAIN barrier — per-connection FIFO guarantees every release message has
// been delivered), and only then kill the service loops, so lock tables
// quiesce empty exactly like the live backend.
package net

import (
	"fmt"
	gonet "net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/port"
	"repro/internal/wire"
)

// Frame kinds (the u8 after the length prefix; see docs/WIRE.md).
const (
	frHello     uint8 = 1 // handshake: magic, version, rank, session
	frMsg       uint8 = 2 // port message: dst port, src port, payload
	frStateReq  uint8 = 3 // state RPC request: corr ID, op, args
	frStateResp uint8 = 4 // state RPC response: corr ID, result
	frCtrl      uint8 = 5 // control: subkind (done | drain | stats)
)

// Control subkinds.
const (
	ctrlDone  uint8 = 1 // this rank's workers all finished
	ctrlDrain uint8 = 2 // conn flush marker: no more port messages behind it
	ctrlStats uint8 = 3 // this rank's serialized post-run statistics
)

// Config places one engine within a cross-process system.
type Config struct {
	Rank    int
	Ranks   int
	Addrs   []string // per-rank listen addresses ("unix:<path>" or TCP "host:port")
	Session int      // distinguishes successive systems over one address base
	Seed    uint64

	// ConnectTimeout bounds the initial rendezvous and any reconnect
	// attempt (default 30s).
	ConnectTimeout time.Duration
	// StateTimeout bounds one synchronous state RPC (default 10s); an
	// expiry faults the run — unlike lock RPCs, memory has no retry path.
	StateTimeout time.Duration
}

// sessionCounter auto-assigns sessions (NetConfig.Session == -1): every
// process runs the same deterministic sequence of systems, so per-process
// counters stay aligned across ranks.
var sessionCounter atomic.Int64

// NextSession draws from the per-process auto-session counter.
func NextSession() int { return int(sessionCounter.Add(1) - 1) }

// Engine owns one rank's goroutine ports and peer connections. The embedded
// Host supplies the start gate, clock, fault capture and drain-then-kill
// Shutdown (connections stay up for ExchangeStats; Close tears them down).
// The connection readers push into its ports' inboxes, which never block
// (port.HostPort.Push).
type Engine struct {
	*port.Host
	cfg Config

	mu     sync.Mutex
	ports  []port.Port // by spawn ID: *port.HostPort (local) or *Stub (remote)
	closed bool

	ln    gonet.Listener
	links []*link // by peer rank; links[cfg.Rank] == nil

	// State-RPC correlation: corr → the waiting caller's slot.
	pendMu sync.Mutex
	pend   map[uint64]*stateCall
	corr   atomic.Uint64

	// Control-plane rendezvous, by control subkind: one frame body per peer
	// rank (buffered for all of them, so a connection reader never blocks).
	ctrl [ctrlStats + 1]chan []byte

	// State plane (BindState).
	st stateHooks

	// Drops counts remote sends lost to broken connections (they surface
	// as RPC timeouts at the protocol layer).
	Drops atomic.Uint64
}

// New validates cfg and returns an engine. No sockets are opened until
// Start.
func New(cfg Config) (*Engine, error) {
	if cfg.Ranks < 2 {
		return nil, fmt.Errorf("net: need >= 2 ranks, got %d", cfg.Ranks)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Ranks {
		return nil, fmt.Errorf("net: rank %d out of range [0,%d)", cfg.Rank, cfg.Ranks)
	}
	if len(cfg.Addrs) != cfg.Ranks {
		return nil, fmt.Errorf("net: need %d addresses, got %d", cfg.Ranks, len(cfg.Addrs))
	}
	if cfg.Session < 0 {
		return nil, fmt.Errorf("net: unresolved session %d (use NextSession)", cfg.Session)
	}
	if cfg.ConnectTimeout <= 0 {
		cfg.ConnectTimeout = 30 * time.Second
	}
	if cfg.StateTimeout <= 0 {
		cfg.StateTimeout = 10 * time.Second
	}
	e := &Engine{cfg: cfg, pend: make(map[uint64]*stateCall)}
	for sub := ctrlDone; sub <= ctrlStats; sub++ {
		e.ctrl[sub] = make(chan []byte, cfg.Ranks)
	}
	e.Host = port.NewHost(cfg.Seed, e.sendRemote)
	e.links = make([]*link, cfg.Ranks)
	for r := 0; r < cfg.Ranks; r++ {
		if r == cfg.Rank {
			continue
		}
		netw, addr, err := resolveAddr(cfg.Addrs[r], cfg.Session, cfg.Ranks)
		if err != nil {
			return nil, err
		}
		e.links[r] = &link{eng: e, peer: r, dialer: cfg.Rank > r, netw: netw, addr: addr}
	}
	return e, nil
}

// Spawn creates the port with the next spawn-order ID. If owner is this rank
// the Host runs fn in its own goroutine (gated on Start); otherwise a Stub
// stands in and fn never runs here — the owning rank, constructing the same
// system, spawns the real one. Spawn must not be called after Start.
func (e *Engine) Spawn(name string, owner int, fn func(port.Port)) port.Port {
	e.mu.Lock()
	defer e.mu.Unlock()
	var p port.Port
	if owner == e.cfg.Rank {
		p = e.Host.Spawn(name, fn)
	} else {
		p = &Stub{id: e.Reserve(), rank: owner, name: name}
	}
	e.ports = append(e.ports, p)
	return p
}

// resolvePort maps a wire port ID to the local replica (wire.PortResolver).
func (e *Engine) resolvePort(id int) port.Port {
	if id < 0 || id >= len(e.ports) {
		return nil
	}
	return e.ports[id]
}

// Start opens the listener, establishes a connection to every peer (dialing
// the lower-ranked side, accepting the higher), then releases the port
// goroutines and starts the clock. The connection rendezvous doubles as the
// start barrier: no rank proceeds until every peer it talks to exists.
func (e *Engine) Start() error {
	// Listen if any higher rank will dial us.
	if e.cfg.Rank < e.cfg.Ranks-1 {
		netw, addr, err := resolveAddr(e.cfg.Addrs[e.cfg.Rank], e.cfg.Session, e.cfg.Ranks)
		if err != nil {
			return err
		}
		ln, err := gonet.Listen(netw, addr)
		if err != nil {
			return fmt.Errorf("net: rank %d listen %s: %w", e.cfg.Rank, addr, err)
		}
		e.ln = ln
		go e.acceptLoop(ln)
	}
	// Dial every lower rank (with backoff: the peer's listener may not
	// exist yet — that skew IS the bootstrap).
	for r := 0; r < e.cfg.Rank; r++ {
		l := e.links[r]
		l.mu.Lock()
		l.dialing = true
		l.mu.Unlock()
		go l.redial()
	}
	// Rendezvous: wait until every link is connected.
	deadline := time.Now().Add(e.cfg.ConnectTimeout)
	for _, l := range e.links {
		if l == nil {
			continue
		}
		if err := l.waitConnected(deadline); err != nil {
			return err
		}
	}
	e.Host.Start()
	return nil
}

// BarrierDone announces that this rank's workers all finished and waits for
// every peer's announcement. DTM service loops keep serving remote traffic
// throughout — that is the point: a rank may only tear down once no process
// can still need its locks.
func (e *Engine) BarrierDone(timeout time.Duration) error {
	_, err := e.exchange(ctrlDone, nil, timeout)
	return err
}

// BarrierDrain flushes every connection: a DRAIN marker is written behind
// all previously sent port messages, and per-connection FIFO means that
// once every peer's marker has been read, every message addressed to this
// rank has already been pushed into its destination mailbox. Call after
// BarrierDone; Shutdown's mailbox drain then leaves the lock tables empty.
func (e *Engine) BarrierDrain(timeout time.Duration) error {
	_, err := e.exchange(ctrlDrain, nil, timeout)
	return err
}

// ExchangeStats broadcasts this rank's serialized post-run statistics and
// returns every peer's. Call after Shutdown (local counters quiesced) and
// before Close (the connections carry the exchange).
func (e *Engine) ExchangeStats(local []byte, timeout time.Duration) ([][]byte, error) {
	return e.exchange(ctrlStats, local, timeout)
}

// exchange writes one control frame of subkind sub to every peer and
// collects the one every peer writes back: a barrier when the payloads are
// empty.
func (e *Engine) exchange(sub uint8, payload []byte, timeout time.Duration) ([][]byte, error) {
	enc := wire.GetEnc()
	defer wire.PutEnc(enc)
	enc.U8(sub)
	enc.Raw(payload)
	for _, l := range e.links {
		if l == nil {
			continue
		}
		if err := l.write(frCtrl, enc); err != nil {
			return nil, fmt.Errorf("net: rank %d: control %d to rank %d: %w", e.cfg.Rank, sub, l.peer, err)
		}
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	var out [][]byte
	for i := 0; i < e.cfg.Ranks-1; i++ {
		select {
		case b := <-e.ctrl[sub]:
			out = append(out, b)
		case <-t.C:
			return nil, fmt.Errorf("net: rank %d: control %d timed out after %v (%d/%d peers)",
				e.cfg.Rank, sub, timeout, i, e.cfg.Ranks-1)
		}
	}
	return out, nil
}

// Close tears down the listener and every connection. State RPCs fail fast
// afterwards (post-run raw verification must run on the owning rank).
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	ln := e.ln
	e.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, l := range e.links {
		if l != nil {
			l.close()
		}
	}
}
