package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/bank"
	"repro/internal/apps/intset"
	"repro/internal/core"
)

// startTestServer boots a server on an ephemeral port and returns it plus a
// channel carrying Serve's result.
func startTestServer(t *testing.T, app string) (*server, chan *core.Stats) {
	t.Helper()
	srv, err := newServer(serverConfig{
		addr:     "127.0.0.1:0",
		app:      app,
		cores:    8,
		accounts: 64,
		capacity: 256,
		seed:     1,
	})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	done := make(chan *core.Stats, 1)
	go func() {
		st, err := srv.Serve()
		if err != nil {
			t.Errorf("Serve: %v", err)
		}
		done <- st
	}()
	return srv, done
}

type testConn struct {
	c  net.Conn
	in *bufio.Scanner
}

func dialTest(t *testing.T, addr string) *testConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return &testConn{c: c, in: bufio.NewScanner(c)}
}

func (tc *testConn) rt(t *testing.T, line string) string {
	t.Helper()
	fmt.Fprintln(tc.c, line)
	if !tc.in.Scan() {
		t.Fatalf("%s: connection closed (err %v)", line, tc.in.Err())
	}
	return tc.in.Text()
}

func waitDrained(t *testing.T, srv *server, done chan *core.Stats) *core.Stats {
	t.Helper()
	select {
	case st := <-done:
		if leaked := srv.LockedAddrs(); leaked != 0 {
			t.Errorf("%d addresses still locked after drain", leaked)
		}
		return st
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain after shutdown")
		return nil
	}
}

// TestServeBankEndToEnd is the bank-transfer conservation check over real
// TCP: concurrent clients hammer transfers, then the transactional BALANCE
// scan must still equal the static TOTAL, and the drained server must hold
// no locks.
func TestServeBankEndToEnd(t *testing.T) {
	srv, done := startTestServer(t, "bank")
	const clients, opsPer = 4, 200
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc := dialTest(t, srv.Addr())
			defer tc.c.Close()
			for op := 0; op < opsPer; op++ {
				from := (i*7 + op) % 64
				to := (i*13 + op*3) % 64
				if reply := tc.rt(t, fmt.Sprintf("TRANSFER %d %d 2", from, to)); reply != "OK" {
					t.Errorf("TRANSFER: %q", reply)
					return
				}
			}
		}()
	}
	wg.Wait()

	tc := dialTest(t, srv.Addr())
	total := tc.rt(t, "TOTAL")
	bal := tc.rt(t, "BALANCE")
	if total != bal || !strings.HasPrefix(total, "OK ") {
		t.Errorf("money not conserved over the wire: TOTAL %q, BALANCE %q", total, bal)
	}
	if reply := tc.rt(t, "BOGUS 1"); !strings.HasPrefix(reply, "ERR") {
		t.Errorf("unknown verb not rejected: %q", reply)
	}
	if reply := tc.rt(t, "SHUTDOWN"); reply != "OK" {
		t.Errorf("SHUTDOWN: %q", reply)
	}
	tc.c.Close()

	st := waitDrained(t, srv, done)
	if want := uint64(clients * opsPer); st.Ops < want {
		t.Errorf("server executed %d ops, want >= %d", st.Ops, want)
	}
	if st.Commits == 0 {
		t.Error("no transaction committed")
	}
}

// TestServeKV checks the typed-API KV store's protocol semantics, including
// delete tombstones and probe-chain reuse.
func TestServeKV(t *testing.T) {
	srv, done := startTestServer(t, "kv")
	tc := dialTest(t, srv.Addr())
	steps := []struct{ send, want string }{
		{"GET 42", "NF"},
		{"PUT 42 7", "OK"},
		{"GET 42", "OK 7"},
		{"PUT 42 8", "OK"},
		{"GET 42", "OK 8"},
		{"DEL 42", "OK 1"},
		{"DEL 42", "OK 0"},
		{"GET 42", "NF"},
		{"PUT 42 9", "OK"},
		{"GET 42", "OK 9"},
		{"PUT 0 1", "ERR PUT wants a key in [1, 2^64-1)"},
	}
	for _, s := range steps {
		if got := tc.rt(t, s.send); got != s.want {
			t.Errorf("%s: got %q, want %q", s.send, got, s.want)
		}
	}
	tc.rt(t, "SHUTDOWN")
	tc.c.Close()
	waitDrained(t, srv, done)
}

// TestServeIntset drives the elastic linked list over the wire.
func TestServeIntset(t *testing.T) {
	srv, done := startTestServer(t, "intset")
	tc := dialTest(t, srv.Addr())
	steps := []struct{ send, want string }{
		{"HAS 5", "OK 0"},
		{"ADD 5", "OK 1"},
		{"ADD 5", "OK 0"},
		{"HAS 5", "OK 1"},
		{"DEL 5", "OK 1"},
		{"DEL 5", "OK 0"},
	}
	for _, s := range steps {
		if got := tc.rt(t, s.send); got != s.want {
			t.Errorf("%s: got %q, want %q", s.send, got, s.want)
		}
	}
	tc.rt(t, "SHUTDOWN")
	tc.c.Close()
	waitDrained(t, srv, done)
}

// TestServeLineTooLong: a request line over the Scanner's 64 KiB token limit
// ends the connection, but the client is told why first.
func TestServeLineTooLong(t *testing.T) {
	srv, done := startTestServer(t, "kv")
	tc := dialTest(t, srv.Addr())
	if got := tc.rt(t, "PUT 1 "+strings.Repeat("9", 70<<10)); got != "ERR line too long" {
		t.Errorf("over-long line: got %q, want %q", got, "ERR line too long")
	}
	// Done sending: the server stops waiting for the rest of the line.
	tc.c.(*net.TCPConn).CloseWrite()
	if tc.in.Scan() {
		t.Errorf("connection still open after an over-long line: read %q", tc.in.Text())
	}
	tc.c.Close()

	tc = dialTest(t, srv.Addr()) // the server itself is unaffected
	if got := tc.rt(t, "PING"); got != "OK" {
		t.Errorf("PING after another client's over-long line: %q", got)
	}
	tc.rt(t, "SHUTDOWN")
	tc.c.Close()
	waitDrained(t, srv, done)
}

// FuzzParseLine feeds arbitrary request lines through the tokenizer and
// every hosted app's parser — the bytes a network client controls.
// Properties: nothing panics, and a parser returns exactly one of an
// executor or an error. Seeded from the commands the tests above send.
func FuzzParseLine(f *testing.F) {
	for _, line := range []string{
		"TRANSFER 1 2 3", "TRANSFER 1 1 3", "TRANSFER 64 0 1", "TRANSFER a b c", "BALANCE", "TOTAL", "BOGUS 1",
		"GET 42", "PUT 42 7", "DEL 42", "PUT 0 1", "PUT 18446744073709551615 1", "PUT 1",
		"HAS 5", "ADD 5", "DEL 5", "ADD -1", "add 9223372036854775808",
		"", "   ", "PING", "get\t42  ",
	} {
		f.Add(line)
	}
	sys, err := core.NewSystem(core.Config{TotalCores: 4})
	if err != nil {
		f.Fatal(err)
	}
	apps := map[string]workload{
		"bank":   &bankWorkload{b: bank.New(sys, 64)},
		"intset": &intsetWorkload{l: intset.New(sys)},
		"kv":     newKVWorkload(sys, 256),
	}
	f.Fuzz(func(t *testing.T, line string) {
		verb, args := splitLine(line)
		if verb == "" {
			if len(args) != 0 {
				t.Fatalf("blank verb with arguments %q", args)
			}
			return
		}
		for name, app := range apps {
			exec, err := app.parse(verb, args)
			if (exec == nil) == (err == nil) {
				t.Errorf("%s.parse(%q, %q) = (exec %v, err %v), want exactly one", name, verb, args, exec != nil, err)
			}
		}
	})
}
