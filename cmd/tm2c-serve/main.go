// Command tm2c-serve hosts a TM2C workload behind a TCP line protocol: a
// live-backend System runs in-process, its app cores pull operations from
// connected network clients, execute them as transactions through the typed
// API, and stream the results back. It is the "TM as a service" front-end:
// many concurrent clients share one transactional memory.
//
// Usage:
//
//	tm2c-serve -addr 127.0.0.1:7344 -app bank -accounts 1024
//	tm2c-serve -addr 127.0.0.1:0 -app kv -capacity 4096
//
// Apps and their line protocols (one request per line, one response line per
// request; see docs/WIRE.md):
//
//	bank:   TRANSFER <from> <to> <amt> → OK
//	        BALANCE                    → OK <total>   (transactional scan)
//	        TOTAL                      → OK <total>   (static invariant)
//	intset: ADD <k> | DEL <k> | HAS <k> → OK 1|0
//	kv:     PUT <k> <v> → OK
//	        GET <k>     → OK <v> | NF
//	        DEL <k>     → OK 1|0
//	all:    PING → OK, QUIT (closes the connection),
//	        SHUTDOWN → OK and the server drains and exits.
//
// Malformed requests get "ERR <reason>" and the connection stays up; a
// request line over 64 KiB gets "ERR line too long" and the connection
// closes (the reader cannot resynchronize past it). On SIGINT/SIGTERM or
// SHUTDOWN the server stops accepting, closes the op queue, lets the
// in-flight transactions finish, and exits 0 only if the lock tables
// drained empty.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7344", "TCP listen address (port 0 picks a free port, printed on stdout)")
		app      = flag.String("app", "bank", "hosted workload: bank | intset | kv")
		cores    = flag.Int("cores", 8, "total cores of the hosted system")
		accounts = flag.Int("accounts", 1024, "bank: number of accounts")
		capacity = flag.Int("capacity", 4096, "kv: slot capacity of the store")
		seed     = flag.Uint64("seed", 1, "system seed")
		quiet    = flag.Bool("quiet", false, "suppress the per-run stats line")
	)
	flag.Parse()

	srv, err := newServer(serverConfig{
		addr:     *addr,
		app:      *app,
		cores:    *cores,
		accounts: *accounts,
		capacity: *capacity,
		seed:     *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tm2c-serve: %v\n", err)
		os.Exit(2)
	}
	// The bound address goes to stdout first, so scripts using port 0 can
	// scrape it before the first client connects.
	fmt.Printf("LISTEN %s\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		srv.InitiateShutdown()
	}()

	st, err := srv.Serve()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tm2c-serve: %v\n", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Printf("DONE commits=%d aborts=%d ops=%d\n", st.Commits, st.Aborts, st.Ops)
	}
	if leaked := srv.LockedAddrs(); leaked != 0 {
		fmt.Fprintf(os.Stderr, "tm2c-serve: %d addresses still locked after drain\n", leaked)
		os.Exit(1)
	}
}
