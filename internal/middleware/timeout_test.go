package middleware

import (
	"context"
	"testing"
	"time"

	"greensched/internal/estvec"
	"greensched/internal/sched"
)

// hangingChild blocks until its context is cancelled (a cooperative
// hang) or, when stubborn, blocks on a private channel forever.
type hangingChild struct {
	stubborn bool
	release  chan struct{}
}

func (h *hangingChild) Name() string { return "hanging" }
func (h *hangingChild) Estimate(ctx context.Context, req Request) (estvec.List, error) {
	if h.stubborn {
		<-h.release
		return nil, nil
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestChildTimeoutIsolatesSlowSubtree(t *testing.T) {
	good := newSED(t, "good", 2, 2e9, 100)
	prime(t, map[string]*SED{"good": good})
	ma, err := NewMasterAgent("ma", sched.New(sched.Power))
	if err != nil {
		t.Fatal(err)
	}
	cooperative := &hangingChild{}
	ma.Attach(cooperative, good)
	ma.SetChildTimeout(50 * time.Millisecond)

	start := time.Now()
	server, list, err := ma.Elect(context.Background(), Request{Service: "burn", Ops: 1e7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if server != "good" || len(list) != 1 {
		t.Fatalf("elected %s with %d candidates", server, len(list))
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("election took %v despite child timeout", elapsed)
	}
}

func TestChildTimeoutStubbornChild(t *testing.T) {
	// A child that ignores cancellation entirely must still not stall
	// the hierarchy (it is abandoned).
	good := newSED(t, "good2", 2, 2e9, 100)
	prime(t, map[string]*SED{"good2": good})
	ma, _ := NewMasterAgent("ma", sched.New(sched.Power))
	stubborn := &hangingChild{stubborn: true, release: make(chan struct{})}
	defer close(stubborn.release) // let the goroutine exit at test end
	ma.Attach(stubborn, good)
	ma.SetChildTimeout(50 * time.Millisecond)
	server, _, err := ma.Elect(context.Background(), Request{Service: "burn", Ops: 1e7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if server != "good2" {
		t.Fatalf("elected %s", server)
	}
}

func TestChildTimeoutAllChildrenHang(t *testing.T) {
	ma, _ := NewMasterAgent("ma", sched.New(sched.Power))
	ma.Attach(&hangingChild{})
	ma.SetChildTimeout(30 * time.Millisecond)
	if _, _, err := ma.Elect(context.Background(), Request{Service: "burn"}, nil); err == nil {
		t.Fatal("all-hanging hierarchy should error")
	}
}

func TestNoTimeoutByDefault(t *testing.T) {
	// Without SetChildTimeout the parent context still applies.
	ma, _ := NewMasterAgent("ma", sched.New(sched.Power))
	ma.Attach(&hangingChild{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, _, err := ma.Elect(ctx, Request{Service: "burn"}, nil)
	if err == nil {
		t.Fatal("cancelled context should surface an error")
	}
}
