package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is virtual time: sleeping jumps the clock forward, and a
// request "takes time" by advancing it.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

// inlinePacer runs each request on the pacer's own goroutine, so a slow
// request holds the schedule up — deterministically.
func inlinePacer(clk clock) pacer {
	p := newPacer(clk)
	p.spawn = func(f func()) { f() }
	return p
}

// A stalled request delays the requests behind it. Their due times stay
// on the schedule, so the stall shows up in their measured latency and
// in the pacer's lateness — not as a lower offered rate.
func TestLatencyIsTimedFromDueTime(t *testing.T) {
	clk := &fakeClock{}
	n := 0
	res := inlinePacer(clk).rung(1000, 10*time.Millisecond, func() bool {
		if n == 0 {
			clk.advance(50 * time.Millisecond) // the first request stalls
		} else {
			clk.advance(100 * time.Microsecond)
		}
		n++
		return true
	})
	if res.Sent != 10 {
		t.Fatalf("sent %d requests, want the 10 the schedule holds", res.Sent)
	}
	// Request i was due at i ms. Request 0 took 50 ms; request 1 was
	// issued at 50 ms (49 ms late) and finished at 50.1 ms: 49.1 ms
	// from its due time although its own service took 0.1 ms.
	if got := res.LatUs[len(res.LatUs)-1]; got != 50000 {
		t.Errorf("slowest latency %v us, want the stalled request's 50000", got)
	}
	if got := res.LatUs[len(res.LatUs)-2]; got != 49100 {
		t.Errorf("second-slowest latency %v us, want 49100 (stall charged from due time)", got)
	}
	if got := res.LateUs[len(res.LateUs)-1]; got != 49000 {
		t.Errorf("worst lateness %v us, want 49000", got)
	}
	if res.LateUs[0] != 0 {
		t.Errorf("first request was late by %v us", res.LateUs[0])
	}
	// Every request after the stall misses the 20 ms limit until the
	// schedule catches up: 50 ms of stall against 1 ms slots never does.
	if res.WithinLimit != 0 {
		t.Errorf("%d requests within the limit, want 0", res.WithinLimit)
	}
	if res.Pass() {
		t.Error("a rung whose every request missed the limit passed")
	}
}

func TestRungPassRules(t *testing.T) {
	base := rungResult{Rate: 500, Sent: 1000, WithinLimit: 1000}
	if !base.Pass() {
		t.Error("clean rung failed")
	}
	for name, mutate := range map[string]func(*rungResult){
		"1.1% over the limit":    func(r *rungResult) { r.WithinLimit = 989 },
		"failures count as miss": func(r *rungResult) { r.WithinLimit, r.Failed = 985, 15 },
		"backlog above 5%":       func(r *rungResult) { r.InflightEnd = 51 },
		"cut off":                func(r *rungResult) { r.Cutoff = true },
		"nothing sent":           func(r *rungResult) { r.Sent, r.WithinLimit = 0, 0 },
	} {
		r := base
		mutate(&r)
		if r.Pass() {
			t.Errorf("%s: rung passed", name)
		}
	}
	for name, mutate := range map[string]func(*rungResult){
		"exactly 99% within": func(r *rungResult) { r.WithinLimit = 990 },
		"backlog exactly 5%": func(r *rungResult) { r.InflightEnd = 50 },
	} {
		r := base
		mutate(&r)
		if !r.Pass() {
			t.Errorf("%s: rung failed", name)
		}
	}
}

// The ladder stops at the first failing rung and reports the highest
// passing one.
func TestLadderStopsAtFirstFailure(t *testing.T) {
	clk := &fakeClock{}
	// Service takes 1.5 ms on a serial server: 250/s and 500/s keep up,
	// 1000/s falls behind by 0.5 ms per request and blows the limit.
	lad := inlinePacer(clk).ladder([]float64{250, 500, 1000, 2000}, time.Second, func() bool {
		clk.advance(1500 * time.Microsecond)
		return true
	})
	if lad.MaxRate != 500 {
		t.Errorf("max rate %v, want 500", lad.MaxRate)
	}
	if len(lad.Rungs) != 3 {
		t.Fatalf("ladder ran %d rungs, want 3 (stop at the first failure)", len(lad.Rungs))
	}
	if lad.Rungs[2].Pass() {
		t.Error("the overloaded rung passed")
	}
	ref, ok := lad.ref()
	if !ok || ref.Rate != ladderRefRate {
		t.Fatalf("no reference rung in %v", lad.Rungs)
	}
	if p50 := percentile(ref.LatUs, 0.5); p50 != 1500 {
		t.Errorf("reference rung p50 %v us, want the 1500 us service time", p50)
	}

	lad = inlinePacer(clk).ladder([]float64{250, 500}, time.Second, func() bool { return false })
	if lad.MaxRate != 0 || len(lad.Rungs) != 1 {
		t.Errorf("all-failing ladder: max rate %v over %d rungs", lad.MaxRate, len(lad.Rungs))
	}
}

// A rung whose backlog passes the cut-off is abandoned, fails, and
// still waits for everything it started: no goroutine survives it.
func TestCutoffLeavesNoGoroutineBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	clk := &fakeClock{}
	p := newPacer(clk)
	p.cutoff = 20
	// Every request outlasts the rung's whole (virtual-time) schedule,
	// which the pacer walks in microseconds of real time.
	res := p.rung(1000, time.Second, func() bool {
		time.Sleep(100 * time.Millisecond)
		return true
	})
	if !res.Cutoff || res.Pass() {
		t.Fatalf("rung was not cut off: %+v", res)
	}
	if res.Sent != p.cutoff+1 {
		t.Errorf("sent %d requests before the cut-off at %d", res.Sent, p.cutoff)
	}
	if len(res.LatUs) != res.Sent {
		t.Errorf("%d of %d requests accounted for after the rung returned", len(res.LatUs), res.Sent)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the rung, %d after", before, after)
	}
}

func TestClosedLoopCountsEveryRequest(t *testing.T) {
	clk := &fakeClock{}
	var calls atomic.Int64
	res := runClosed(clk, 1, 10*time.Millisecond, 0, func(int) bool {
		clk.advance(time.Millisecond)
		return calls.Add(1)%5 != 0 // every fifth request fails
	})
	if res.Attempted != 10 || res.Failed != 2 || len(res.LatUs) != 8 {
		t.Errorf("attempted %d, failed %d, %d latencies; want 10, 2, 8", res.Attempted, res.Failed, len(res.LatUs))
	}
	if res.LatUs[0] != 1000 || res.LatUs[7] != 1000 {
		t.Errorf("latencies %v, want 1000 us each", res.LatUs)
	}
	if res.Window != 10*time.Millisecond {
		t.Errorf("window %v", res.Window)
	}
}
