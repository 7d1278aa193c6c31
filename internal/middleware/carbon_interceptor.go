package middleware

import (
	"context"
	"fmt"
	"sync"
	"time"

	"greensched/internal/carbon"
	"greensched/internal/estvec"
	"greensched/internal/journal"
)

// CarbonInterceptor puts the grid on the live serving path — the
// mirror of sim.CarbonModule plus the candidacy-window deferral the
// simulator delegates to the consolidation controller:
//
//   - mounted on a SED, its WrapEstimation hook publishes the site's
//     current intensity under estvec.TagCarbonIntensity so
//     carbon-aware policies rank on it;
//   - mounted on a Master, its OnSubmit hook holds Deferrable
//     requests back while the grid is dirtier than DirtyG — bounded
//     by MaxDeferSec and the caller's context — and its OnComplete
//     hook integrates every completion's energy share against the
//     signal into grams of CO2.
//
// One instance belongs to one mount; a deployment that wants both
// roles mounts two instances (SEDs see their own site's grid, the
// master the deployment's), exactly as sim.CarbonModule attaches
// per-node state.
//
// Mount it AFTER an SLAInterceptor: the SLA hook resolves class
// deadlines onto Request.Deadline first, so the deferral below can see
// them and honour the "deadline traffic is never parked" rule for
// class-carrying requests too.
type CarbonInterceptor struct {
	BaseInterceptor

	// Signal is the grid behind the mount, read on the mount's clock:
	// the master clock on master mounts, seconds since Init on SEDs.
	Signal carbon.Signal

	// DirtyG enables deferral on master mounts: Deferrable requests
	// wait while the intensity exceeds it (0 disables deferral).
	DirtyG float64
	// MaxDeferSec bounds one request's wait; when it expires the
	// request proceeds on the dirty grid. Required when DirtyG is set.
	MaxDeferSec float64
	// PollSec is the re-check interval while deferred (0 = 50ms).
	PollSec float64

	clock func() float64
	jrn   *journal.Journal

	mu          sync.Mutex
	parked      map[uint64]float64 // request ID → park time on the mount's clock
	deferred    int
	deferredSec float64
	grams       float64
}

// Init implements Interceptor.
func (c *CarbonInterceptor) Init(mount Mount) error {
	if c.Signal == nil {
		return fmt.Errorf("middleware: carbon interceptor needs a signal")
	}
	if c.DirtyG > 0 && c.MaxDeferSec <= 0 {
		return fmt.Errorf("middleware: carbon interceptor with DirtyG %v needs a positive MaxDeferSec (unbounded deferral would park requests forever)", c.DirtyG)
	}
	if c.PollSec < 0 {
		return fmt.Errorf("middleware: carbon interceptor PollSec %v negative", c.PollSec)
	}
	c.parked = make(map[uint64]float64)
	if mount.Master != nil {
		c.clock = mount.Master.Now
		c.jrn = mount.Master.Journal()
	} else {
		epoch := time.Now()
		c.clock = func() float64 { return time.Since(epoch).Seconds() }
	}
	return nil
}

// WrapEstimation implements Interceptor: the SED's vectors gain the
// site's current carbon intensity.
func (c *CarbonInterceptor) WrapEstimation(base EstimationFunc) EstimationFunc {
	return func(s *SED, req Request) *estvec.Vector {
		v := base(s, req)
		v.Set(estvec.TagCarbonIntensity, c.Signal.IntensityAt(c.clock()))
		return v
	}
}

// OnSubmit implements Interceptor: Deferrable requests wait for a
// clean window — the live candidacy-window deferral. Non-deferrable
// (and deadline-carrying) traffic passes straight through, matching
// the simulator's rule that SLA work is never parked behind a green
// window.
func (c *CarbonInterceptor) OnSubmit(ctx context.Context, now float64, req *Request) error {
	if c.DirtyG <= 0 || !req.Deferrable || req.Deadline > 0 {
		return nil
	}
	if c.Signal.IntensityAt(now) <= c.DirtyG {
		return nil
	}
	poll := c.PollSec
	if poll <= 0 {
		poll = 0.05
	}
	start := now
	c.mu.Lock()
	c.parked[req.ID] = start
	c.mu.Unlock()
	if c.jrn != nil {
		// Best-effort: the admission record already keeps a parked
		// request incomplete (hence replayed); the deferred record is
		// what lets inspection tell a park from a lost dispatch.
		c.jrn.Defer(req.ID)
	}
	ticker := time.NewTicker(time.Duration(poll * float64(time.Second)))
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			c.mu.Lock()
			delete(c.parked, req.ID)
			c.mu.Unlock()
			return ctx.Err()
		case <-ticker.C:
		}
		now = c.clock()
		if c.Signal.IntensityAt(now) <= c.DirtyG || now-start >= c.MaxDeferSec {
			break
		}
	}
	c.mu.Lock()
	delete(c.parked, req.ID)
	c.deferred++
	c.deferredSec += now - start
	c.mu.Unlock()
	return nil
}

// DeferralStats implements DeferralReporter: the currently parked
// queue — how many requests are waiting out a dirty window and how
// long the oldest has waited, as of now on the mount's clock. This is
// what Master.Deferred aggregates for the observability surface: a
// parked request is visible here BEFORE its window opens or its
// deferral bound expires.
func (c *CarbonInterceptor) DeferralStats(now float64) DeferralStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := DeferralStats{Parked: len(c.parked)}
	for _, since := range c.parked {
		if age := now - since; age > st.OldestSec {
			st.OldestSec = age
		}
	}
	return st
}

// OnComplete implements Interceptor: the completion's energy share is
// integrated against the grid at its finish time.
func (c *CarbonInterceptor) OnComplete(rec RequestRecord) {
	g := c.Signal.IntensityAt(rec.Finish)
	c.mu.Lock()
	c.grams += rec.EnergyJ / carbon.JoulesPerKWh * g
	c.mu.Unlock()
}

// Rebook implements Rebooker: a journaled outcome's energy share is
// re-integrated against the grid at its original finish time. The
// deferral counters are NOT restored — they are observability of this
// incarnation's waits, not books.
func (c *CarbonInterceptor) Rebook(rec RequestRecord) {
	c.OnComplete(rec)
}

// Finalize implements Interceptor: deferral counters and the emissions
// attribution land on the result.
func (c *CarbonInterceptor) Finalize(res *LiveResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res.Deferred += c.deferred
	res.DeferredSec += c.deferredSec
	res.CO2Grams += c.grams
}
