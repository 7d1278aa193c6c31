// Package budget implements the paper's announced future work:
// "budget constrained scheduling" (§V). A Tracker meters cumulative
// energy (or monetary cost) against a budget over a planning horizon,
// and a Policy wrapper steers the scheduler continuously from
// performance-seeking to efficiency-seeking as consumption runs ahead
// of the budget's linear burn-down.
//
// The mechanism reuses the paper's own machinery: the burn-down error
// is mapped onto an effective Preference_user, and the Eq. 6 score
// policy does the ranking — no new scheduling math, just a feedback
// loop around it.
package budget

import (
	"fmt"
	"math"
	"sync"

	"greensched/internal/core"
	"greensched/internal/estvec"
	"greensched/internal/sched"
)

// Tracker meters consumption against a total budget across a horizon.
// It is safe for concurrent use (the live middleware charges it from
// SED completion callbacks).
type Tracker struct {
	mu       sync.Mutex
	total    float64 // budget in joules (or cost units)
	horizon  float64 // seconds
	spent    float64
	lastTime float64
}

// NewTracker returns a tracker for `total` units over `horizon`
// seconds.
func NewTracker(total, horizon float64) (*Tracker, error) {
	if total <= 0 || horizon <= 0 {
		return nil, fmt.Errorf("budget: total and horizon must be positive")
	}
	return &Tracker{total: total, horizon: horizon}, nil
}

// Charge records consumption at time now (seconds since the horizon
// start). Charges may arrive out of order from concurrent completions;
// only the monotonic maximum of now is retained for pacing.
func (t *Tracker) Charge(now, amount float64) {
	if amount < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spent += amount
	if now > t.lastTime {
		t.lastTime = now
	}
}

// Spent returns cumulative consumption.
func (t *Tracker) Spent() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spent
}

// Remaining returns the unspent budget (never negative).
func (t *Tracker) Remaining() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return math.Max(0, t.total-t.spent)
}

// Exhausted reports whether the budget is fully consumed.
func (t *Tracker) Exhausted() bool { return t.Remaining() == 0 }

// BurnError returns how far consumption runs ahead (+) or behind (−)
// of the linear burn-down at time now, normalized to [−1, 1]:
//
//	error = (spent − total·now/horizon) / total
//
// +0.1 means 10 % of the whole budget ahead of schedule.
func (t *Tracker) BurnError(now float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if now < 0 {
		now = 0
	}
	if now > t.horizon {
		now = t.horizon
	}
	expected := t.total * now / t.horizon
	e := (t.spent - expected) / t.total
	return math.Max(-1, math.Min(1, e))
}

// steerGain is how hard the Preference loop steers: 5 reaches full
// efficiency at 18 % over-burn.
const steerGain = 5

// Preference maps the burn error onto an effective Preference_user:
// on or behind budget → the caller's base preference; ahead of budget
// → pushed toward +0.9 (maximize efficiency) by steerGain.
type Preference struct {
	Tracker *Tracker
	Base    core.UserPref
}

// At returns the effective preference at time now.
func (p Preference) At(now float64) core.UserPref {
	pref := float64(p.Base)
	if e := p.Tracker.BurnError(now); e > 0 {
		pref += steerGain * e
	}
	return core.UserPref(pref).Clamped()
}

// Policy is a plug-in scheduler that re-ranks by the Eq. 6 score under
// the tracker-steered preference. Clock supplies "now" (virtual or
// wall time in seconds).
type Policy struct {
	Pref  Preference
	Ops   float64
	Clock func() float64
}

// NewPolicy builds a budget-aware policy for tasks of `ops` flops.
func NewPolicy(tr *Tracker, base core.UserPref, ops float64, clock func() float64) (*Policy, error) {
	if tr == nil || clock == nil {
		return nil, fmt.Errorf("budget: policy needs a tracker and a clock")
	}
	if ops <= 0 {
		return nil, fmt.Errorf("budget: policy needs positive ops")
	}
	return &Policy{Pref: Preference{Tracker: tr, Base: base}, Ops: ops, Clock: clock}, nil
}

// Name implements sched.Policy.
func (p *Policy) Name() string { return "BUDGET" }

// Less implements sched.Policy.
func (p *Policy) Less(a, b *estvec.Vector) bool {
	inner := sched.ScorePolicy{Ops: p.Ops, Pref: p.Pref.At(p.Clock())}
	return inner.Less(a, b)
}

// Enforcer gates admission when the budget is exhausted: requests are
// rejected rather than scheduled, mirroring the management of budget
// limits §III-B motivates.
type Enforcer struct {
	Tracker *Tracker
}

// Admit returns an error when no budget remains.
func (e Enforcer) Admit() error {
	if e.Tracker.Exhausted() {
		return fmt.Errorf("budget: exhausted (%.0f spent)", e.Tracker.Spent())
	}
	return nil
}
