package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apps/bank"
	"repro/internal/apps/intset"
	"repro/internal/cm"
	"repro/internal/core"
)

// serverConfig are the knobs newServer needs; a subset of the CLI flags so
// tests can build servers directly.
type serverConfig struct {
	addr     string
	app      string
	cores    int
	accounts int
	capacity int
	seed     uint64
}

// request is one parsed client line on its way to an app core. The executor
// runs inside a worker runtime's transaction loop; resp receives exactly one
// response line.
type request struct {
	exec func(rt *core.Runtime) string
	resp chan string
}

// server glues the pieces together: the hosted System, the workload adapter
// translating protocol lines into transactions, the listener, and the op
// queue the app cores pull from.
type server struct {
	sys  *core.System
	ln   net.Listener
	reqs chan *request
	app  workload

	shutOnce sync.Once
	conns    sync.WaitGroup // active client connections
}

// workload adapts one hosted app to the line protocol: parse a command into
// a transaction-running executor, or reject it.
type workload interface {
	parse(verb string, args []string) (func(rt *core.Runtime) string, error)
}

func newServer(cfg serverConfig) (*server, error) {
	sys, err := core.NewSystem(core.Config{
		Backend:    core.BackendLive,
		Seed:       cfg.seed,
		TotalCores: cfg.cores,
		Policy:     cm.FairCM,
	})
	if err != nil {
		return nil, err
	}
	var app workload
	switch cfg.app {
	case "bank":
		app = &bankWorkload{b: bank.New(sys, cfg.accounts)}
	case "intset":
		app = &intsetWorkload{l: intset.New(sys)}
	case "kv":
		app = newKVWorkload(sys, cfg.capacity)
	default:
		return nil, fmt.Errorf("unknown app %q (want bank | intset | kv)", cfg.app)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return nil, err
	}
	return &server{
		sys:  sys,
		ln:   ln,
		reqs: make(chan *request, 128),
		app:  app,
	}, nil
}

// Addr returns the bound listen address.
func (s *server) Addr() string { return s.ln.Addr().String() }

// InitiateShutdown stops accepting and, once the active connections have
// finished, closes the op queue so the app cores drain and return. Safe to
// call more than once and from any goroutine.
func (s *server) InitiateShutdown() {
	s.shutOnce.Do(func() {
		s.ln.Close()
		go func() {
			s.conns.Wait()
			close(s.reqs)
		}()
	})
}

// Serve spawns the app cores as queue workers, accepts clients until
// shutdown, and returns the drained system's merged stats.
func (s *server) Serve() (*core.Stats, error) {
	s.sys.SpawnWorkers(func(rt *core.Runtime) {
		for req := range s.reqs {
			req.resp <- req.exec(rt)
			rt.AddOps(1)
		}
	})
	go s.acceptLoop()
	st := s.sys.RunToCompletion()
	return st, nil
}

// LockedAddrs reports locks surviving the drain (must be zero). Valid after
// Serve returns.
func (s *server) LockedAddrs() int { return s.sys.LockedAddrs() }

func (s *server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: shutdown
		}
		s.conns.Add(1)
		go s.serveConn(conn)
	}
}

func (s *server) serveConn(conn net.Conn) {
	defer s.conns.Done()
	defer conn.Close()
	in := bufio.NewScanner(conn)
	out := bufio.NewWriter(conn)
	resp := make(chan string, 1)
	for in.Scan() {
		verb, args := splitLine(in.Text())
		if verb == "" {
			continue
		}
		var reply string
		switch verb {
		case "PING":
			reply = "OK"
		case "QUIT":
			return
		case "SHUTDOWN":
			fmt.Fprintln(out, "OK")
			out.Flush()
			// This connection must end before the queue can close: the
			// shutdown waiter counts it.
			go s.InitiateShutdown()
			return
		default:
			exec, err := s.app.parse(verb, args)
			if err != nil {
				reply = "ERR " + err.Error()
				break
			}
			s.reqs <- &request{exec: exec, resp: resp}
			reply = <-resp
		}
		fmt.Fprintln(out, reply)
		if err := out.Flush(); err != nil {
			return
		}
	}
	if errors.Is(in.Err(), bufio.ErrTooLong) {
		// A Scanner cannot resynchronize past an over-long token, so the
		// connection ends here — but with a reason, not silently.
		fmt.Fprintln(out, "ERR line too long")
		out.Flush()
		// Closing with the rest of the line unread would reset the connection
		// and could take the reply with it: let the client finish sending
		// (bounded in bytes and time) before the deferred Close.
		conn.SetReadDeadline(time.Now().Add(time.Second))
		io.Copy(io.Discard, io.LimitReader(conn, 1<<20))
	}
}

// splitLine tokenizes one request line into its upper-cased verb and its
// arguments; a blank line has no verb.
func splitLine(line string) (verb string, args []string) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", nil
	}
	return strings.ToUpper(fields[0]), fields[1:]
}

// --- bank ---------------------------------------------------------------

type bankWorkload struct{ b *bank.Bank }

func (w *bankWorkload) parse(verb string, args []string) (func(rt *core.Runtime) string, error) {
	switch verb {
	case "TRANSFER":
		if len(args) != 3 {
			return nil, fmt.Errorf("usage: TRANSFER <from> <to> <amt>")
		}
		from, err1 := strconv.Atoi(args[0])
		to, err2 := strconv.Atoi(args[1])
		amt, err3 := strconv.ParseUint(args[2], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("TRANSFER wants integers")
		}
		if from < 0 || from >= w.b.Accounts() || to < 0 || to >= w.b.Accounts() {
			return nil, fmt.Errorf("account out of range [0,%d)", w.b.Accounts())
		}
		if from == to {
			// A self-transfer is a no-op; Bank.Transfer assumes distinct
			// accounts (its read-modify-write pair would mint money).
			return func(rt *core.Runtime) string { return "OK" }, nil
		}
		return func(rt *core.Runtime) string {
			w.b.Transfer(rt, from, to, amt)
			return "OK"
		}, nil
	case "BALANCE":
		return func(rt *core.Runtime) string {
			return fmt.Sprintf("OK %d", w.b.Balance(rt))
		}, nil
	case "TOTAL":
		return func(rt *core.Runtime) string {
			return fmt.Sprintf("OK %d", w.b.Total())
		}, nil
	}
	return nil, fmt.Errorf("unknown bank command %q", verb)
}

// --- intset -------------------------------------------------------------

type intsetWorkload struct{ l *intset.List }

func (w *intsetWorkload) parse(verb string, args []string) (func(rt *core.Runtime) string, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("usage: %s <key>", verb)
	}
	key, err := strconv.ParseUint(args[0], 10, 63)
	if err != nil {
		return nil, fmt.Errorf("%s wants an unsigned key", verb)
	}
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	switch verb {
	case "ADD":
		return func(rt *core.Runtime) string {
			return fmt.Sprintf("OK %d", b2i(w.l.Add(rt, intset.Normal, key)))
		}, nil
	case "DEL":
		return func(rt *core.Runtime) string {
			return fmt.Sprintf("OK %d", b2i(w.l.Remove(rt, intset.Normal, key)))
		}, nil
	case "HAS":
		return func(rt *core.Runtime) string {
			return fmt.Sprintf("OK %d", b2i(w.l.Contains(rt, intset.Normal, key)))
		}, nil
	}
	return nil, fmt.Errorf("unknown intset command %q", verb)
}

// --- kv -----------------------------------------------------------------

// kvWorkload is a fixed-capacity open-addressing hash table written
// entirely against the typed transactional API: two parallel TArrays hold
// keys and values, linear probing resolves collisions, and a tombstone key
// keeps probe chains intact across deletes. Keys are in [1, 2^63); 0 marks
// an empty slot.
type kvWorkload struct {
	keys core.TArray[uint64]
	vals core.TArray[uint64]
	cap  int
}

// kvTombstone marks a deleted slot: probing continues past it, PUT reuses it.
const kvTombstone = ^uint64(0)

func newKVWorkload(sys *core.System, capacity int) *kvWorkload {
	if capacity < 16 {
		capacity = 16
	}
	return &kvWorkload{
		keys: core.NewTArray(sys, core.Uint64Codec(), capacity, 0),
		vals: core.NewTArray(sys, core.Uint64Codec(), capacity, 0),
		cap:  capacity,
	}
}

func kvHash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return k
}

func (w *kvWorkload) parse(verb string, args []string) (func(rt *core.Runtime) string, error) {
	wantArgs := 1
	if verb == "PUT" {
		wantArgs = 2
	}
	if len(args) != wantArgs {
		return nil, fmt.Errorf("usage: GET|DEL <key> or PUT <key> <val>")
	}
	key, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil || key == 0 || key == kvTombstone {
		return nil, fmt.Errorf("%s wants a key in [1, 2^64-1)", verb)
	}
	switch verb {
	case "PUT":
		val, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("PUT wants an unsigned value")
		}
		return func(rt *core.Runtime) string {
			ok := false
			rt.Run(func(tx *core.Tx) {
				ok = w.put(tx, key, val)
			})
			if !ok {
				return "ERR store full"
			}
			return "OK"
		}, nil
	case "GET":
		return func(rt *core.Runtime) string {
			found, val := false, uint64(0)
			rt.Run(func(tx *core.Tx) {
				found, val = w.get(tx, key)
			})
			if !found {
				return "NF"
			}
			return fmt.Sprintf("OK %d", val)
		}, nil
	case "DEL":
		return func(rt *core.Runtime) string {
			deleted := false
			rt.Run(func(tx *core.Tx) {
				deleted = w.del(tx, key)
			})
			if deleted {
				return "OK 1"
			}
			return "OK 0"
		}, nil
	}
	return nil, fmt.Errorf("unknown kv command %q", verb)
}

func (w *kvWorkload) put(tx *core.Tx, key, val uint64) bool {
	h := kvHash(key)
	reuse := -1
	for i := 0; i < w.cap; i++ {
		slot := int((h + uint64(i)) % uint64(w.cap))
		switch k := w.keys.Get(tx, slot); k {
		case key:
			w.vals.Set(tx, slot, val)
			return true
		case kvTombstone:
			if reuse < 0 {
				reuse = slot
			}
		case 0:
			if reuse >= 0 {
				slot = reuse
			}
			w.keys.Set(tx, slot, key)
			w.vals.Set(tx, slot, val)
			return true
		}
	}
	if reuse >= 0 {
		w.keys.Set(tx, reuse, key)
		w.vals.Set(tx, reuse, val)
		return true
	}
	return false
}

func (w *kvWorkload) get(tx *core.Tx, key uint64) (bool, uint64) {
	h := kvHash(key)
	for i := 0; i < w.cap; i++ {
		slot := int((h + uint64(i)) % uint64(w.cap))
		switch k := w.keys.Get(tx, slot); k {
		case key:
			return true, w.vals.Get(tx, slot)
		case 0:
			return false, 0
		}
	}
	return false, 0
}

func (w *kvWorkload) del(tx *core.Tx, key uint64) bool {
	h := kvHash(key)
	for i := 0; i < w.cap; i++ {
		slot := int((h + uint64(i)) % uint64(w.cap))
		switch k := w.keys.Get(tx, slot); k {
		case key:
			w.keys.Set(tx, slot, kvTombstone)
			return true
		case 0:
			return false
		}
	}
	return false
}
