package middleware

import (
	"context"
	"sync"
	"testing"
	"time"

	"greensched/internal/sched"
)

// TestConcurrentPolicySwapUnderLoad hot-swaps the plug-in scheduler
// while elections are in flight — the paper's "policy management ...
// abstracted into a software layer that can be ... controlled
// centrally" must be race-free.
func TestConcurrentPolicySwapUnderLoad(t *testing.T) {
	ma, seds := buildHierarchy(t, sched.New(sched.Power))
	prime(t, seds)

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		policies := []sched.Policy{
			sched.New(sched.Power),
			sched.New(sched.Performance),
			sched.New(sched.GreenPerf),
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				ma.SetPolicy(policies[i%len(policies)])
				time.Sleep(time.Millisecond)
			}
		}
	}()

	errs := make([]error, 24)
	var submitters sync.WaitGroup
	for i := range errs {
		submitters.Add(1)
		go func(i int) {
			defer submitters.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, errs[i] = ma.Submit(ctx, "burn", 1e7, 0, nil)
		}(i)
	}
	submitters.Wait()
	close(stop)
	swapper.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d failed during policy swaps: %v", i, err)
		}
	}
}

// TestRemoteReconnectsAfterServerRestart: a Remote handle must survive
// its endpoint being restarted on a new connection (persistent grids
// restart daemons all the time).
func TestRemoteReconnectsAfterServerRestart(t *testing.T) {
	sed := newSED(t, "restartable", 2, 2e9, 100)
	prime(t, map[string]*SED{"restartable": sed})
	ep, err := Serve("127.0.0.1:0", sed, sed)
	if err != nil {
		t.Fatal(err)
	}
	addr := ep.Addr()
	rem := Dial("restartable", addr)
	defer rem.Close()
	if _, err := rem.Estimate(context.Background(), Request{Service: "burn", Ops: 1e6}); err != nil {
		t.Fatal(err)
	}
	// Kill the endpoint; the cached connection goes stale.
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rem.Estimate(context.Background(), Request{Service: "burn", Ops: 1e6}); err == nil {
		t.Fatal("estimate against a dead endpoint should fail")
	}
	// Restart on the same address and retry: Remote must redial.
	ep2, err := Serve(addr, sed, sed)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ep2.Close()
	list, err := rem.Estimate(context.Background(), Request{Service: "burn", Ops: 1e6})
	if err != nil {
		t.Fatalf("remote did not reconnect: %v", err)
	}
	if len(list) != 1 || list[0].Server != "restartable" {
		t.Fatalf("reconnected estimate = %v", list)
	}
}

// TestEndpointCloseUnblocksIdleConnection: Close must return promptly
// even when a Remote holds an idle persistent connection whose handler
// goroutine is parked in Decode waiting for the next request. (A past
// version only closed the listener, so Close hung on the handler
// WaitGroup until the 10-minute test deadline.)
func TestEndpointCloseUnblocksIdleConnection(t *testing.T) {
	sed := newSED(t, "idleconn", 2, 2e9, 100)
	prime(t, map[string]*SED{"idleconn": sed})
	ep, err := Serve("127.0.0.1:0", sed, sed)
	if err != nil {
		t.Fatal(err)
	}
	rem := Dial("idleconn", ep.Addr())
	defer rem.Close()
	// Establish the persistent connection and leave it idle.
	if _, err := rem.Estimate(context.Background(), Request{Service: "burn", Ops: 1e6}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ep.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Endpoint.Close did not return while a connection sat idle")
	}
	// Close must be idempotent after draining.
	if err := ep.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestEndpointCloseDuringInFlightSolve: Close waits for a handler that
// is actively computing, and the reply still reaches the client that
// issued it before shutdown started.
func TestEndpointCloseDuringInFlightSolve(t *testing.T) {
	sed := newSED(t, "draining", 2, 2e9, 100)
	prime(t, map[string]*SED{"draining": sed})
	ep, err := Serve("127.0.0.1:0", sed, sed)
	if err != nil {
		t.Fatal(err)
	}
	rem := Dial("draining", ep.Addr())
	defer rem.Close()

	type result struct {
		resp Response
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := rem.Solve(context.Background(), Request{Service: "burn", Ops: 1e6})
		got <- result{resp, err}
	}()
	// Give the solve a moment to go in flight, then shut down.
	time.Sleep(20 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- ep.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Endpoint.Close hung during an in-flight solve")
	}
	r := <-got
	// Either outcome is acceptable — completed before the conn died, or
	// failed because shutdown won the race — but it must not hang.
	if r.err == nil && r.resp.Server != "draining" {
		t.Fatalf("solve succeeded on wrong server: %+v", r.resp)
	}
}
