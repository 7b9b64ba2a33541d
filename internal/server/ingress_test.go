package server_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"github.com/ido-nvm/ido/internal/loadgen"
	"github.com/ido-nvm/ido/internal/metrics"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/server"
)

// snap is a MetricsSnapshot convenience for the ingress assertions.
func snap(srv *server.Server) metrics.ServerStats {
	var s metrics.ServerStats
	srv.MetricsSnapshot(&s)
	return s
}

// TestMaxConnsGate: connections past the MaxConns watermark get the
// protocol's canned busy error and an immediate close; ServeConn
// reports ErrServerBusy; a freed slot re-admits.
func TestMaxConnsGate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto server.Proto
		busy  string
	}{
		{"memcache", server.ProtoMemcache, "SERVER_ERROR busy\r\n"},
		{"resp", server.ProtoRESP, "-ERR server busy\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorldCfg(t, tc.proto, 2, nvm.Config{Size: 1 << 22}, nil,
				func(cfg *server.Config) { cfg.MaxConns = 2 })

			c1 := w.dial(t)
			defer c1.Close()
			c2 := w.dial(t)

			// Third connection: canned busy reply, then close.
			client, srvEnd := loadgen.MemPipe(1 << 12)
			if err := w.srv.ServeConn(srvEnd); !errors.Is(err, server.ErrServerBusy) {
				t.Fatalf("ServeConn over the gate: err = %v, want ErrServerBusy", err)
			}
			got := readFull(t, client, len(tc.busy))
			if string(got) != tc.busy {
				t.Fatalf("busy reply = %q, want %q", got, tc.busy)
			}
			expectEOF(t, client)
			if st := snap(w.srv); st.ConnsRejected != 1 {
				t.Fatalf("ConnsRejected = %d, want 1", st.ConnsRejected)
			}

			// Freeing a slot re-admits the next dial.
			c2.Close()
			deadline := time.Now().Add(5 * time.Second)
			for snap(w.srv).ConnsOpen >= 2 {
				if time.Now().After(deadline) {
					t.Fatal("closed connection never unregistered")
				}
				time.Sleep(time.Millisecond)
			}
			c3 := w.dial(t)
			defer c3.Close()
			if tc.proto == server.ProtoMemcache {
				runSteps(t, c3, []step{{"get readmitted\r\n", "END\r\n"}})
			} else {
				runSteps(t, c3, []step{{"*1\r\n$4\r\nPING\r\n", "+PONG\r\n"}})
			}
		})
	}
}

// TestIdleTimeoutKicksIdleConn: a connection silent past IdleTimeout is
// closed by the server and counted, while a connection that keeps
// talking is left alone (each completed read re-arms the deadline).
func TestIdleTimeoutKicksIdleConn(t *testing.T) {
	w := newWorldCfg(t, server.ProtoMemcache, 2, nvm.Config{Size: 1 << 22}, nil,
		func(cfg *server.Config) { cfg.IdleTimeout = 100 * time.Millisecond })

	busy := w.dial(t)
	defer busy.Close()
	idle := w.dial(t)
	defer idle.Close()

	// Keep one connection chatty across several idle windows; the idle
	// one goes quiet after a single op.
	runSteps(t, idle, []step{{"set k 0 0 1\r\n1\r\n", "STORED\r\n"}})
	for i := 0; i < 8; i++ {
		runSteps(t, busy, []step{{"get k\r\n", "VALUE k 0 1\r\n1\r\nEND\r\n"}})
		time.Sleep(40 * time.Millisecond)
	}
	expectEOF(t, idle)

	st := snap(w.srv)
	if st.IdleClosed != 1 {
		t.Fatalf("IdleClosed = %d, want 1 (busy conn must not be kicked)", st.IdleClosed)
	}
	// The chatty connection is still serviceable.
	runSteps(t, busy, []step{{"get k\r\n", "VALUE k 0 1\r\n1\r\nEND\r\n"}})
}

// TestDrainMidLoad: Drain under live pipelined load must flush every
// acknowledged response (clients parse clean replies, no error replies,
// no torn frames), release all connections within the budget, and leave
// the store re-servable by a fresh front end.
func TestDrainMidLoad(t *testing.T) {
	w := newWorld(t, server.ProtoMemcache, 4, nvm.Config{
		Size: 1 << 22,
	}, nil)

	type out struct {
		res *loadgen.Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := loadgen.Run(loadgen.Config{
			Proto: loadgen.ProtoMemcache, Conns: 4, Pipeline: 8, Keys: 512,
			SetPct: 40, DelPct: 20, Duration: 30 * time.Second, Seed: 11,
		}, func() (net.Conn, error) {
			client, srvEnd := loadgen.MemPipe(64 << 10)
			if serr := w.srv.ServeConn(srvEnd); serr != nil {
				client.Close()
				return nil, serr
			}
			return client, nil
		})
		done <- out{res, err}
	}()

	// Let the load get deep into flight, then pull the plug gracefully.
	deadline := time.Now().Add(5 * time.Second)
	for snap(w.srv).Reqs < 1000 {
		if time.Now().After(deadline) {
			t.Fatal("load never ramped")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.srv.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	var o out
	select {
	case o = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("loadgen did not finish after drain")
	}
	if o.err != nil {
		t.Fatalf("loadgen: %v", o.err)
	}
	if o.res.Ops == 0 {
		t.Fatal("no ops completed before the drain")
	}
	// Every response the clients parsed must have been clean: the drain
	// path flushes acknowledged replies whole and never substitutes
	// error replies for in-flight work.
	if o.res.Errs != 0 {
		t.Fatalf("clients saw %d error replies across the drain", o.res.Errs)
	}
	if open := snap(w.srv).ConnsOpen; open != 0 {
		t.Fatalf("%d connections still open after drain", open)
	}

	// The drained process's store is intact: a fresh front end over the
	// same runtime serves reads and writes immediately.
	srv2, err := server.New(w.rt, w.store, server.Config{Proto: server.ProtoMemcache}, nil)
	if err != nil {
		t.Fatalf("re-serve after drain: %v", err)
	}
	defer srv2.Close()
	client, srvEnd := loadgen.MemPipe(1 << 14)
	if err := srv2.ServeConn(srvEnd); err != nil {
		t.Fatalf("ServeConn on re-served store: %v", err)
	}
	defer client.Close()
	runSteps(t, client, []step{
		{"set postdrain 0 0 2\r\n42\r\n", "STORED\r\n"},
		{"get postdrain\r\n", "VALUE postdrain 0 2\r\n42\r\nEND\r\n"},
	})
	t.Logf("drained after %d ops (%d reqs server-side)", o.res.Ops, snap(srv2).Reqs)
}
