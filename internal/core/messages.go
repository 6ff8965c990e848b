package core

import (
	"sync"

	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/port"
)

// The DTM wire protocol. Every transactional wrapper is "similar to an
// RPC-like call ... but uses message passing" (Algorithm 3/4): the app core
// sends a request to the responsible DTM node and blocks for the response.
// Releases are fire-and-forget. The whole lock service is three types: a
// reqLock in read, write or exclusive mode, its respLock, and relLocks.
//
// Lock requests carry a correlation ID (ReqID) assigned by the requesting
// core's RPC layer (rpc.go) and echoed verbatim in the response, so a core
// may keep several requests to different DTM nodes outstanding at once
// (commit-time scatter-gather) and still attribute every response to the
// batch it answers. The ID is part of the modeled 8-byte header, so it does
// not change any payload size.
//
// Lock requests additionally carry the placement epoch (internal/placement)
// at which the sender resolved its keys to the destination node. A request
// that arrives after the resolution went stale — the stripe was handed off,
// or is frozen for migration — is NACKed (respLock.Stale) back to the
// requester for re-resolution, so a grant can only ever be issued by a
// key's current owner. The epoch rides in the 24-byte metadata block and
// changes no payload size.
//
// Payload sizes below approximate the on-wire encoding (for latency
// accounting only): an 8-byte header, 8 bytes per address, and a 24-byte
// transaction metadata block.

const (
	msgHeaderBytes = 8
	msgMetaBytes   = 24
	msgAddrBytes   = 8
	msgRespBytes   = msgHeaderBytes + 16
)

// lockMode says what a reqLock asks for.
type lockMode uint8

const (
	lockRead      lockMode = iota // Algorithm 1: the read lock of each key
	lockWrite                     // Algorithm 2: the write locks of a batch (§3.3)
	lockExclusive                 // the node's irrevocability token; no keys
)

// reqLock asks a DTM node for the read or write locks of keys it owns, or
// for its exclusivity token (irrevocable.go).
type reqLock struct {
	ReqID   uint64 // correlation ID, echoed in the response
	Epoch   uint64 // placement epoch at resolution time
	Mode    lockMode
	Addrs   []mem.Addr
	Meta    cm.Meta
	Reply   port.Port
	ReplyTo int // app core ID

	// Rel is the requesting core's release of an earlier attempt's locks at
	// this node, carried instead of sent on its own (Runtime.carryOn), or
	// nil. The node serves it after the request. Never set in exclusive
	// mode.
	Rel *relLocks

	// Ended names an attempt the requester found ended, by its status
	// register, after a NACK of this request named it as the winner
	// (Core < 0: none). The node revokes that attempt's locks on Addrs
	// before it judges the request again (Runtime.winnerEnded).
	Ended attemptRef
}

// attemptRef names one transaction attempt: its core and attempt ID.
type attemptRef struct {
	Core int
	TxID uint64
}

func (r *reqLock) bytes() int {
	if r.Mode == lockExclusive {
		return msgHeaderBytes + 16 // the holder's core and transaction ID
	}
	n := msgHeaderBytes + msgMetaBytes + msgAddrBytes*len(r.Addrs)
	if r.Rel != nil {
		// The release's attempt and keys; its core is the requester's.
		n += 8 + msgAddrBytes*(len(r.Rel.ReadAddrs)+len(r.Rel.WriteAddrs))
	}
	if r.Ended.Core >= 0 {
		n += 16 // the ended attempt's core and ID
	}
	return n
}

// respLock answers a reqLock. OK means NO_CONFLICT, or for a token request
// that the token is granted; on failure Kind reports the conflict class that
// aborted the requester, unless Stale is set: then the request was NACKed
// because the node no longer (or not yet) owns a requested key, or its
// stripe is frozen for migration, and the requester must re-resolve and
// retry. ReqID echoes the request's correlation ID.
type respLock struct {
	ReqID uint64
	OK    bool
	Stale bool
	Kind  cm.Kind

	// Vers piggybacks the current version of every granted key (in request
	// order) on a TL2 write-lock grant, so commit-time revalidation of
	// read∩write stripes needs no extra memory traffic. Nil under the
	// visible protocol; each version adds one modeled address-sized word to
	// the response (respBytes).
	Vers []uint64

	// NackEpoch and NackOwner piggyback a hint on a NACK, in the modeled
	// 16-byte response body, so NACK sizes are unchanged. NackOwner < 0
	// means no hint.
	//   - Stale: the directory epoch and the key's new owner (none for a
	//     multi-key batch). A requester chasing a migrated stripe follows the
	//     hint instead of paying a fresh directory resolution.
	//   - Conflict: the core and attempt that decided it, for every conflict
	//     class: the holder whose priority won, a holder already committing,
	//     or the irrevocable transaction that blocks the node.
	NackEpoch uint64
	NackOwner int
}

// respBytes is the modeled size of a lock response: the fixed body plus one
// word per piggybacked version (zero except on TL2 write-lock grants).
func respBytes(resp *respLock) int {
	return msgRespBytes + msgAddrBytes*len(resp.Vers)
}

// relLocks releases the given read and write locks of attempt (Core, TxID):
// one per node at the end of every attempt, sent on its own or carried by
// the core's next lock request (reqLock.Rel), and — with only ReadAddrs set
// — the elastic-early release before commit (§6.1). With Exclusive set and no
// addresses it returns the exclusivity token instead. Fire-and-forget:
// stale releases are no-ops.
type relLocks struct {
	ReadAddrs  []mem.Addr
	WriteAddrs []mem.Addr
	Core       int
	TxID       uint64
	Exclusive  bool
}

func (r *relLocks) bytes() int {
	return msgHeaderBytes + 16 + msgAddrBytes*(len(r.ReadAddrs)+len(r.WriteAddrs))
}

// barrierMsg implements the §8 privatization barrier: each app core sends
// one to every other app core and waits for all of them.
type barrierMsg struct {
	Epoch uint64
}

func (barrierMsg) bytes() int { return msgHeaderBytes + 8 }

// Protocol-message pools. The hot path sends one lock request and one
// response per acquisition plus a release burst per attempt; without reuse
// every one of them is a fresh heap object. Ownership follows the message:
// the creator fills a pooled struct and sends it, and the FINAL toucher
// recycles it — requests and fire-and-forget releases by the DTM node after
// its handle arm returns (a queued token request once it is granted),
// responses by the requesting core once consumed.
// Messages that are never consumed (dropped at shutdown, expired deadlines,
// duplicate responses) simply fall to the garbage collector; nothing is ever
// recycled twice. Address and version slices are pool-owned: builders copy
// into them (append(x[:0], ...)) rather than alias caller storage, so an
// in-flight message never shares backing arrays with scratch buffers the
// sender is already reusing.
//
// Every get function fully reinitializes the struct — a pooled object
// carries arbitrary stale field values from its previous life.
var (
	lockReqPool  = sync.Pool{New: func() any { return new(reqLock) }}
	respLockPool = sync.Pool{New: func() any { return new(respLock) }}
	relLocksPool = sync.Pool{New: func() any { return new(relLocks) }}
)

func getLockReq() *reqLock {
	r := lockReqPool.Get().(*reqLock)
	addrs := r.Addrs[:0]
	*r = reqLock{Addrs: addrs, Ended: attemptRef{Core: -1}}
	return r
}

// putLockReq recycles r and the release it still carries, if any.
func putLockReq(r *reqLock) {
	if r.Rel != nil {
		putRelLocks(r.Rel)
	}
	r.Reply, r.Rel = nil, nil
	lockReqPool.Put(r)
}

func getRespLock() *respLock {
	r := respLockPool.Get().(*respLock)
	vers := r.Vers[:0]
	*r = respLock{Vers: vers, NackOwner: -1}
	return r
}

func putRespLock(r *respLock) {
	respLockPool.Put(r)
}

func getRelLocks() *relLocks {
	r := relLocksPool.Get().(*relLocks)
	reads, writes := r.ReadAddrs[:0], r.WriteAddrs[:0]
	*r = relLocks{ReadAddrs: reads, WriteAddrs: writes}
	return r
}

func putRelLocks(r *relLocks) {
	relLocksPool.Put(r)
}
