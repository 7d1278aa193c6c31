package middleware

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"greensched/internal/obs"
	"greensched/internal/sched"
)

// Multiplexed calls on one connection: concurrency, per-call timeouts,
// cancellation carried to the remote service, and connection loss.
// Events are ordered with channels; time only bounds a wait.

// guard is how long a test waits for an event that should be prompt.
const guard = 5 * time.Second

// serveRemote puts sed behind an endpoint and dials it; both are closed
// when the test ends, the endpoint last.
func serveRemote(t testing.TB, sed *SED) (*Endpoint, *Remote) {
	t.Helper()
	ep, err := Serve("127.0.0.1:0", sed, sed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	rem := Dial(sed.Name(), ep.Addr())
	t.Cleanup(func() { rem.Close() })
	return ep, rem
}

// solveAsync starts a Solve and returns the channel its error lands on.
func solveAsync(ctx context.Context, rem *Remote, service string) <-chan error {
	errCh := make(chan error, 1)
	go func() {
		_, err := rem.Solve(ctx, Request{Service: service, Ops: 1e6})
		errCh <- err
	}()
	return errCh
}

// waitFor receives from ch within the guard or fails the test.
func waitFor[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(guard):
		t.Fatalf("timed out waiting for %s", what)
		var zero T
		return zero
	}
}

// TestRemoteMultiplexes: four concurrent Solves on one Remote are all
// inside the SED's service at once — none returns until all four have
// entered, so a lock-step connection would never get past the first.
func TestRemoteMultiplexes(t *testing.T) {
	const n = 4
	var entered sync.WaitGroup
	entered.Add(n)
	all := make(chan struct{})
	go func() { entered.Wait(); close(all) }()
	sed := newSED(t, "wide", n, 2e9, 100)
	sed.Register(Service{Name: "barrier", Solve: func(ctx context.Context, _ Request) ([]byte, error) {
		entered.Done()
		select {
		case <-all:
			return []byte("met"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	_, rem := serveRemote(t, sed)
	rem.timeout = guard
	var errs []<-chan error
	for i := 0; i < n; i++ {
		errs = append(errs, solveAsync(context.Background(), rem, "barrier"))
	}
	for _, ch := range errs {
		if err := waitFor(t, ch, "a barrier solve"); err != nil {
			t.Fatalf("barrier solve: %v (the %d solves did not run at once)", err, n)
		}
	}
}

// TestRemoteSlowSolveDoesNotDelayEstimate: an Estimate on the same
// Remote completes while a Solve is still executing on the far side.
func TestRemoteSlowSolveDoesNotDelayEstimate(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	sed := newSED(t, "busy", 2, 2e9, 100)
	sed.Register(Service{Name: "slow", Solve: func(ctx context.Context, _ Request) ([]byte, error) {
		close(entered)
		select {
		case <-release:
			return []byte("late"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	_, rem := serveRemote(t, sed)
	defer close(release)
	solved := solveAsync(context.Background(), rem, "slow")
	waitFor(t, entered, "the slow solve to start")

	estimated := make(chan error, 1)
	go func() {
		list, err := rem.Estimate(context.Background(), Request{Service: "slow", Ops: 1e6})
		if err == nil && (len(list) != 1 || list[0].Server != "busy") {
			err = fmt.Errorf("estimate lists %v, want busy", list)
		}
		estimated <- err
	}()
	if err := waitFor(t, estimated, "the estimate behind a slow solve"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-solved:
		t.Fatalf("slow solve returned before its release: %v", err)
	default:
	}
}

// TestRemoteConnLossFailsEveryPendingCall: when the peer drops the
// connection, every call waiting on it fails with ErrTransport.
func TestRemoteConnLossFailsEveryPendingCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const n = 3
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close() // after n requests arrived, none answered
		dec := gob.NewDecoder(conn)
		for i := 0; i < n; i++ {
			var msg wireMsg
			if dec.Decode(&msg) != nil {
				return
			}
		}
	}()
	rem := Dial("dropper", ln.Addr().String())
	defer rem.Close()
	errs := []<-chan error{solveAsync(context.Background(), rem, "burn"), solveAsync(context.Background(), rem, "burn")}
	estimated := make(chan error, 1)
	go func() {
		_, err := rem.Estimate(context.Background(), Request{Service: "burn", Ops: 1e6})
		estimated <- err
	}()
	for _, ch := range append(errs, estimated) {
		if err := waitFor(t, ch, "a call on a dropped connection"); !errors.Is(err, ErrTransport) {
			t.Fatalf("pending call on a dropped connection: err = %v, want ErrTransport", err)
		}
	}
}

// TestRemoteTimeoutBeatsLaterDeadline: the remote timeout bounds a call even
// when the caller's context allows longer — the earlier of the two
// wins.
func TestRemoteTimeoutBeatsLaterDeadline(t *testing.T) {
	block := make(chan struct{})
	sed := newSED(t, "stuck", 1, 2e9, 100)
	sed.Register(Service{Name: "hang", Solve: func(context.Context, Request) ([]byte, error) {
		<-block
		return nil, nil
	}})
	_, rem := serveRemote(t, sed)
	t.Cleanup(func() { close(block) }) // runs before the endpoint closes
	rem.timeout = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), guard)
	defer cancel()
	select {
	case err := <-solveAsync(ctx, rem, "hang"):
		if !errors.Is(err, ErrTransport) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("timed-out solve: err = %v, want ErrTransport wrapping the deadline", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the 5 s context lifted the 100 ms timeout")
	}
}

// TestEndpointCloseCancelsInFlightSolve: Close does not wait out a
// Solve in flight — it ends the request's context, which the Solve
// observes, and the caller gets ErrTransport.
func TestEndpointCloseCancelsInFlightSolve(t *testing.T) {
	entered := make(chan struct{})
	observed := make(chan error, 1)
	sed := newSED(t, "closing", 1, 2e9, 100)
	sed.Register(Service{Name: "wait", Solve: func(ctx context.Context, _ Request) ([]byte, error) {
		close(entered)
		<-ctx.Done()
		observed <- ctx.Err()
		return nil, ctx.Err()
	}})
	ep, rem := serveRemote(t, sed)
	solved := solveAsync(context.Background(), rem, "wait")
	waitFor(t, entered, "the solve to start")
	closed := make(chan error, 1)
	go func() { closed <- ep.Close() }()
	if err := waitFor(t, closed, "Endpoint.Close during a solve"); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-observed:
		if err == nil {
			t.Fatal("solve saw its context end with a nil error")
		}
	default:
		t.Fatal("Close returned before the solve it waited for")
	}
	if err := waitFor(t, solved, "the cancelled solve's caller"); !errors.Is(err, ErrTransport) {
		t.Fatalf("solve on a closed endpoint: err = %v, want ErrTransport", err)
	}
}

// TestCancelReachesRemoteSolve: cancelling a Master.Do mid-solve over
// TCP cancels the context the remote service runs under, and the next
// request reuses the same connection — one dial span in all.
func TestCancelReachesRemoteSolve(t *testing.T) {
	var buf bytes.Buffer
	w := obs.NewSpanWriter(&buf)
	entered := make(chan struct{})
	observed := make(chan error, 1)
	sed := newSED(t, "far", 2, 2e9, 100)
	prime(t, map[string]*SED{"far": sed})
	sed.Register(Service{Name: "wait", Solve: func(ctx context.Context, _ Request) ([]byte, error) {
		close(entered)
		<-ctx.Done()
		observed <- ctx.Err()
		return nil, ctx.Err()
	}})
	_, rem := serveRemote(t, sed)
	rem.SetSpans(w)
	m, err := NewMaster(WithPolicy(sched.New(sched.Power)), withSEDs(rem), WithSpans(w))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := m.Do(ctx, Request{Service: "wait", Ops: 1e6})
		done <- err
	}()
	waitFor(t, entered, "the remote solve to start")
	cancel()
	if err := waitFor(t, observed, "the remote solve to see the cancel"); !errors.Is(err, context.Canceled) {
		t.Fatalf("remote solve's context ended with %v, want context.Canceled", err)
	}
	if err := waitFor(t, done, "the cancelled Do"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Do: err = %v, want context.Canceled", err)
	}

	resp, err := m.Do(context.Background(), Request{Service: "burn", Ops: 1e6})
	if err != nil || resp.Server != "far" {
		t.Fatalf("request after a cancel: resp %+v, err %v", resp, err)
	}
	dials := 0
	for _, sp := range readSpans(t, &buf) {
		if sp.Name == obs.StageDial {
			dials++
		}
	}
	if dials != 1 {
		t.Fatalf("%d dial spans, want 1: the cancel must not cost the connection", dials)
	}
}

// validFrame is a request frame exactly as a Remote writes it first on
// a fresh connection (type descriptors, then the message).
func validFrame(tb testing.TB) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&wireMsg{ID: 1, Kind: wireEstimate, Req: Request{Service: "burn", Ops: 1e6}}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzEndpointFrame writes arbitrary bytes to an Endpoint connection
// and half-closes it. The endpoint must not panic, must drop that
// connection, and must still serve a fresh Remote.
func FuzzEndpointFrame(f *testing.F) {
	f.Add([]byte("\x07NOT-A-GOB-FRAME\xff\xfe"))
	f.Add(validFrame(f))
	sed, err := NewSED(SEDConfig{Name: "fuzzed", Slots: 2})
	if err != nil {
		f.Fatal(err)
	}
	sed.Register(burnService(1e12))
	ep, err := Serve("127.0.0.1:0", sed, sed)
	if err != nil {
		f.Fatal(err)
	}
	defer ep.Close()
	f.Fuzz(func(t *testing.T, frame []byte) {
		conn, err := net.Dial("tcp", ep.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(guard))
		conn.Write(frame) // the endpoint may hang up part-way
		conn.(*net.TCPConn).CloseWrite()
		if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("endpoint kept the connection open after the frame")
		}
		rem := Dial("fuzzed", ep.Addr())
		defer rem.Close()
		if _, err := rem.Estimate(context.Background(), Request{Service: "burn", Ops: 1e6}); err != nil {
			t.Fatalf("endpoint stopped serving after the frame: %v", err)
		}
	})
}

// BenchmarkRemoteRoundTrip is the uncontended cost of one call over
// loopback TCP: a serial Estimate and a serial Solve of an instant
// service on an already-dialled Remote. It is the per-layer number
// behind the benchmark's live-tcp setup_s.
func BenchmarkRemoteRoundTrip(b *testing.B) {
	sed, err := NewSED(SEDConfig{Name: "loop", Slots: 4,
		Interceptors: []Interceptor{&MeterInterceptor{Meter: func() (float64, bool) { return 100, true }}}})
	if err != nil {
		b.Fatal(err)
	}
	if err := sed.Register(Service{Name: "nop", Solve: func(context.Context, Request) ([]byte, error) { return nil, nil }}); err != nil {
		b.Fatal(err)
	}
	_, rem := serveRemote(b, sed)
	ctx := context.Background()
	req := Request{Service: "nop", Ops: 1e6}
	if _, err := rem.Solve(ctx, req); err != nil { // dial, and prime the estimator
		b.Fatal(err)
	}
	b.Run("Estimate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rem.Estimate(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Solve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rem.Solve(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
