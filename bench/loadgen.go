package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source the generators run on. The benchmark uses
// the wall clock; the generator's own tests inject a virtual one.
type clock interface {
	// Now is the time since the clock's origin.
	Now() time.Duration
	// SleepUntil returns once Now() >= t (at once when already past).
	SleepUntil(t time.Duration)
}

type wallClock struct{ origin time.Time }

func newWallClock() wallClock { return wallClock{origin: time.Now()} }

func (c wallClock) Now() time.Duration { return time.Since(c.origin) }

func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// closedResult is one closed-loop window.
type closedResult struct {
	Attempted int
	Failed    int           // errors, refusals included
	Window    time.Duration // first send to last completion
	LatUs     []float64     // per completed request, ascending
}

// runClosed drives `clients` closed loops for `window`: each client
// sends its next request only when the previous one returned. do
// reports whether the request completed. expect is how many requests the
// window will probably complete (0: unknown); sizing the sample buffers
// from it keeps the generator from growing them — and the process's
// memory high-water mark from depending on when the collector ran.
func runClosed(clk clock, clients int, window time.Duration, expect int, do func(client int) bool) closedResult {
	type perClient struct {
		lat       []float64
		attempted int
		failed    int
	}
	out := make([]perClient, clients)
	start := clk.Now()
	deadline := start + window
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			pc := &out[c]
			pc.lat = make([]float64, 0, expect/clients*5/4+1024)
			for {
				t0 := clk.Now()
				if t0 >= deadline {
					return
				}
				ok := do(c)
				pc.attempted++
				if !ok {
					pc.failed++
					continue
				}
				pc.lat = append(pc.lat, float64(clk.Now()-t0)/1e3)
			}
		}(c)
	}
	wg.Wait()
	res := closedResult{Window: clk.Now() - start}
	total := 0
	for _, pc := range out {
		total += len(pc.lat)
	}
	res.LatUs = make([]float64, 0, total)
	for _, pc := range out {
		res.Attempted += pc.attempted
		res.Failed += pc.failed
		res.LatUs = append(res.LatUs, pc.lat...)
	}
	sort.Float64s(res.LatUs)
	return res
}

// Open-loop ladder rules (ISSUE 12): a rung passes when at least 99% of
// the requests sent finish within the limit and the backlog at the end
// of the rung is at most 5% of its sends; a rung whose backlog passes
// the cut-off is abandoned and fails.
const (
	ladderLimit    = 20 * time.Millisecond
	ladderPassFrac = 0.99
	ladderBacklog  = 0.05
	ladderCutoff   = 2000
)

var ladderRates = []float64{250, 500, 1000, 2000, 4000, 8000}

// ladderRefRate is the rung the open_* latencies are read at.
const ladderRefRate = 500

// rungResult is one open-loop rung.
type rungResult struct {
	Rate        float64
	Sent        int
	WithinLimit int       // completed OK within the latency limit, from due time
	Failed      int       // errors, refusals included
	InflightEnd int       // requests still running when the rung's schedule ended
	Cutoff      bool      // abandoned: backlog passed the cut-off
	LatUs       []float64 // completed requests, timed from their due time, ascending
	LateUs      []float64 // how late the pacer issued each request, ascending
}

// Pass applies the rung rule.
func (r rungResult) Pass() bool {
	if r.Cutoff || r.Sent == 0 {
		return false
	}
	return float64(r.WithinLimit) >= ladderPassFrac*float64(r.Sent) &&
		float64(r.InflightEnd) <= ladderBacklog*float64(r.Sent)
}

// pacer issues requests on a fixed schedule, one goroutine each, and
// times every request from the instant it was DUE — so a stall charges
// the requests queued behind it, exactly as independent users would
// experience it. spawn is `go f()` outside tests.
type pacer struct {
	clk    clock
	cutoff int
	spawn  func(f func())
}

func newPacer(clk clock) pacer {
	return pacer{clk: clk, cutoff: ladderCutoff, spawn: func(f func()) { go f() }}
}

// rung runs one rate for dur and returns once every request it sent has
// finished, so no goroutine outlives it — not even after a cut-off.
func (p pacer) rung(rate float64, dur time.Duration, do func() bool) rungResult {
	res := rungResult{Rate: rate}
	interval := time.Duration(float64(time.Second) / rate)
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		inflight atomic.Int64
	)
	start := p.clk.Now()
	for i := 0; ; i++ {
		due := start + time.Duration(i)*interval
		if due >= start+dur {
			break
		}
		p.clk.SleepUntil(due)
		if int(inflight.Load()) > p.cutoff {
			res.Cutoff = true
			break
		}
		late := p.clk.Now() - due
		res.Sent++
		res.LateUs = append(res.LateUs, float64(late)/1e3)
		inflight.Add(1)
		wg.Add(1)
		p.spawn(func() {
			defer wg.Done()
			ok := do()
			lat := p.clk.Now() - due
			inflight.Add(-1)
			mu.Lock()
			defer mu.Unlock()
			if !ok {
				res.Failed++
				return
			}
			res.LatUs = append(res.LatUs, float64(lat)/1e3)
			if lat <= ladderLimit {
				res.WithinLimit++
			}
		})
	}
	res.InflightEnd = int(inflight.Load())
	wg.Wait()
	sort.Float64s(res.LatUs)
	sort.Float64s(res.LateUs)
	return res
}

// ladderResult is a whole ladder climb.
type ladderResult struct {
	Rungs   []rungResult
	MaxRate float64 // highest passing rung, 0 when the first one fails
}

// ladder climbs the rates in order and stops at the first failing rung.
func (p pacer) ladder(rates []float64, rungDur time.Duration, do func() bool) ladderResult {
	var out ladderResult
	for _, rate := range rates {
		r := p.rung(rate, rungDur, do)
		out.Rungs = append(out.Rungs, r)
		if !r.Pass() {
			break
		}
		out.MaxRate = rate
	}
	return out
}

// ref returns the reference rung, or false when the ladder never got
// there.
func (l ladderResult) ref() (rungResult, bool) {
	for _, r := range l.Rungs {
		if r.Rate == ladderRefRate {
			return r, true
		}
	}
	return rungResult{}, false
}
