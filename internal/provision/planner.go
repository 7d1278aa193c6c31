package provision

import "fmt"

// Planner implements the Master Agent's autonomic provisioning loop:
// every CheckPeriod it reads the platform status from the plan store,
// resolves the administrator rules to a target candidate count, and
// moves the pool toward the target in bounded steps.
//
// Scheduled events (future records already present in the plan) are
// visible Lookahead seconds ahead; the planner pre-ramps *upward* so
// the pool reaches the future target exactly when the event starts
// ("Observing a future cost of 0.8, the agent plans ahead to provide 8
// candidate nodes at t+60 min. The set of candidates is incremented
// slowly to obtain a progressive start ... It avoids heat peaks due to
// side effect of simultaneous starts"). Downward changes are never
// anticipated: shrinking early would deny service while energy is
// still cheap.
type Planner struct {
	Rules       Rules
	TotalNodes  int
	MinNodes    int     // floor kept alive during out-of-range events
	CheckPeriod float64 // seconds between status checks (600 in §IV-C)
	Lookahead   float64 // visibility horizon (1200 in §IV-C)
	// StepUp / StepDown bound the per-check pool change. The paper's
	// Event 1 ramps 4→8 in two checks (StepUp 2); Event 3 drops 12→2
	// "in 3 steps" (StepDown 4).
	StepUp   int
	StepDown int

	current int
}

// NewPlanner returns a planner with the paper's §IV-C parameters for a
// platform of totalNodes, starting with start candidates.
func NewPlanner(totalNodes, start int) *Planner {
	return &Planner{
		Rules:       DefaultRules(),
		TotalNodes:  totalNodes,
		MinNodes:    1,
		CheckPeriod: 600,
		Lookahead:   1200,
		StepUp:      2,
		StepDown:    4,
		current:     start,
	}
}

// Validate reports configuration errors.
func (p *Planner) Validate() error {
	if err := p.Rules.Validate(); err != nil {
		return err
	}
	switch {
	case p.TotalNodes <= 0:
		return fmt.Errorf("provision: planner needs nodes")
	case p.CheckPeriod <= 0 || p.Lookahead < 0:
		return fmt.Errorf("provision: non-positive periods")
	case p.StepUp <= 0 || p.StepDown <= 0:
		return fmt.Errorf("provision: steps must be positive")
	case p.current < 0 || p.current > p.TotalNodes:
		return fmt.Errorf("provision: start pool %d outside [0,%d]", p.current, p.TotalNodes)
	}
	return nil
}

// Current returns the current candidate-pool size.
func (p *Planner) Current() int { return p.current }

// Decision is the outcome of one check.
type Decision struct {
	At         float64
	Status     Status // status in force now
	RuleNow    string // matched rule for the current status
	TargetNow  int    // quota from the current status
	TargetNext int    // quota from the best future event in the horizon (= TargetNow if none)
	Pool       int    // pool size after applying this decision
	Changed    int    // signed change applied
}

// Check runs one planning step at time now against the store (plan
// timestamps are in the same second timeline). It returns the decision
// taken; apply the pool change via the caller's orchestration (boot /
// drain+shutdown).
func (p *Planner) Check(now float64, store *Store) Decision {
	st := p.statusAt(store, int64(now))
	targetNow := p.Rules.Quota(st, p.TotalNodes, p.MinNodes)

	// Upward pre-ramp: find the largest future quota within the
	// horizon and when it starts, then begin stepping early enough to
	// arrive on time.
	targetNext := targetNow
	desired := targetNow
	for _, rec := range store.Window(int64(now)+1, int64(now+p.Lookahead)) {
		if rec.Unexpected {
			continue // §IV-C: unexpected events are not forecastable
		}
		futureTarget := p.Rules.Quota(statusOf(rec), p.TotalNodes, p.MinNodes)
		if futureTarget <= p.current || futureTarget <= targetNow {
			continue
		}
		if futureTarget > targetNext {
			targetNext = futureTarget
		}
		stepsNeeded := ceilDiv(futureTarget-p.current, p.StepUp)
		rampStart := float64(rec.Value) - float64(stepsNeeded-1)*p.CheckPeriod
		if now >= rampStart-1e-9 && futureTarget > desired {
			desired = futureTarget
		}
	}

	next := p.current
	switch {
	case desired > p.current:
		next = p.current + p.StepUp
		if next > desired {
			next = desired
		}
	case desired < p.current:
		next = p.current - p.StepDown
		if next < desired {
			next = desired
		}
	}
	d := Decision{
		At:         now,
		Status:     st,
		RuleNow:    p.Rules.Match(st),
		TargetNow:  targetNow,
		TargetNext: targetNext,
		Pool:       next,
		Changed:    next - p.current,
	}
	p.current = next
	return d
}

// statusAt reads the status in force; with no record yet, it assumes
// the safest state (regular cost, in-range temperature).
func (p *Planner) statusAt(store *Store, t int64) Status {
	rec, ok := store.At(t)
	if !ok {
		return Status{Temperature: 20, Cost: 1.0}
	}
	return statusOf(rec)
}

// statusOf projects a plan record onto the rule inputs.
func statusOf(rec Record) Status {
	return Status{Temperature: rec.Temperature, Cost: rec.Cost}
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
