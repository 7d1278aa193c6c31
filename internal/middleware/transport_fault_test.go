package middleware

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"greensched/internal/sched"
)

// Fault injection for the TCP transport: a connection dropped
// mid-solve and a malformed gob frame must surface ErrTransport
// promptly (no hang) and leave the hierarchy able to elect another
// SED.

// TestRemoteConnDroppedMidSolve: killing the endpoint while a solve is
// in flight surfaces a typed transport error instead of hanging.
func TestRemoteConnDroppedMidSolve(t *testing.T) {
	entered := make(chan struct{})
	sed := newSED(t, "doomed", 1, 2e9, 100)
	sed.Register(Service{Name: "slow", Solve: func(ctx context.Context, _ Request) ([]byte, error) {
		close(entered)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	ep, rem := serveRemote(t, sed)
	errCh := solveAsync(context.Background(), rem, "slow")
	waitFor(t, entered, "the solve to get in flight")
	closed := make(chan error, 1)
	go func() { closed <- ep.Close() }()
	waitFor(t, closed, "Endpoint.Close during a solve")
	if err := waitFor(t, errCh, "the dropped solve"); !errors.Is(err, ErrTransport) {
		t.Fatalf("mid-solve drop err = %v, want ErrTransport", err)
	}
}

// TestRemoteMalformedGobFrame: a peer speaking garbage instead of the
// wire protocol surfaces ErrTransport, bounded by the remote timeout.
func TestRemoteMalformedGobFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 512)
		conn.Read(buf) // swallow the request frame
		conn.Write([]byte("\x07NOT-A-GOB-FRAME\xff\xfe"))
	}()

	rem := Dial("garbled", ln.Addr().String())
	rem.timeout = 2 * time.Second
	defer rem.Close()
	done := make(chan error, 1)
	go func() {
		_, err := rem.Estimate(context.Background(), Request{Service: "burn", Ops: 1e6})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("malformed frame err = %v, want ErrTransport", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("malformed frame hung the estimate")
	}
}

// TestRemoteApplicationErrorIsNotTransport: an error the remote SED
// itself returned travels as an application error — re-electing will
// not help, and callers must be able to tell the two apart.
func TestRemoteApplicationErrorIsNotTransport(t *testing.T) {
	sed := newSED(t, "honest", 1, 2e9, 100)
	ep, err := Serve("127.0.0.1:0", sed, nil) // endpoint that cannot solve
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	rem := Dial("honest", ep.Addr())
	defer rem.Close()
	_, err = rem.Solve(context.Background(), Request{Service: "burn", Ops: 1e6})
	if err == nil {
		t.Fatal("solve against a non-solving endpoint should error")
	}
	if errors.Is(err, ErrTransport) {
		t.Fatalf("application error misclassified as transport failure: %v", err)
	}
}

// TestTransportFaultFailsRequest: when the elected SED's connection
// dies mid-solve, the request fails with the transport error instead
// of hanging on the dead socket, and the master books it as failed.
// It is not re-elected in-run: the journal's lease redo is the
// failover path (see Replay).
func TestTransportFaultFailsRequest(t *testing.T) {
	// The remote SED looks most attractive under POWER (lowest watts),
	// so the first election lands on it.
	doomed := newSED(t, "doomed", 1, 2e9, 50)
	doomed.Register(Service{Name: "burn2", Solve: func(ctx context.Context, _ Request) ([]byte, error) {
		select {
		case <-time.After(5 * time.Second):
			return []byte("late"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	var rescues atomic.Int64
	healthy := newSED(t, "healthy", 1, 2e9, 400)
	healthy.Register(Service{Name: "burn2", Solve: func(context.Context, Request) ([]byte, error) {
		rescues.Add(1)
		return []byte("rescued"), nil
	}})
	prime(t, map[string]*SED{"doomed": doomed, "healthy": healthy})

	ep, err := Serve("127.0.0.1:0", doomed, doomed)
	if err != nil {
		t.Fatal(err)
	}
	rem := Dial("doomed", ep.Addr())
	defer rem.Close()

	ma, err := NewMaster(
		WithName("ma"),
		WithPolicy(sched.New(sched.Power)),
		withSEDs(rem),
		withSEDs(healthy),
		WithChildTimeout(2*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: the doomed remote wins the first election.
	server, _, err := ma.Elect(context.Background(), Request{Service: "burn2", Ops: 1e6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if server != "doomed" {
		t.Fatalf("first election = %s, want doomed", server)
	}

	go func() {
		time.Sleep(150 * time.Millisecond)
		ep.Close() // drop the connection mid-solve
	}()
	if _, err := ma.Submit(context.Background(), "burn2", 1e6, 0, nil); !errors.Is(err, ErrTransport) {
		t.Fatalf("submit over a dropped connection: err = %v, want the transport error", err)
	}
	if n := rescues.Load(); n != 0 {
		t.Fatalf("healthy SED solved %d requests, want 0: the master does not re-elect in-run", n)
	}
	if res := ma.Finalize(); res.Failed != 1 || res.Completed != 0 {
		t.Fatalf("result %+v, want the one request booked as failed", res)
	}
}
