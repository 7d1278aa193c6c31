package budget

import (
	"fmt"

	"greensched/internal/core"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/workload"
)

// Module meters a simulation run against an energy budget: every
// completed task charges its exact per-task energy share
// (TaskRecord.EnergyShareJ) to the Tracker, and — when Steer is set —
// elections are re-ranked toward energy efficiency whenever
// consumption runs ahead of the budget's linear burn-down.
//
// The steering is deliberately conditional: while the run is on or
// under pace the stack's base policy (GreenPerf, CARBON, whatever the
// scenario composed below this module) keeps full control, so budget
// awareness costs nothing until the burn-down is actually violated.
//
// While over budget the module REPLACES the ranking the stack built
// so far with the steered Eq. 6 score. Mount it before (earlier in
// the stack than) modules whose wrappers must survive steering —
// e.g. an SLAModule with WrapDeadline, whose deadline-feasibility
// screen then wraps the steered ranking instead of being discarded
// by it.
type Module struct {
	sim.BaseModule

	// Tracker meters consumption (joules) against the budget; give
	// every run its own (charges accumulate).
	Tracker *Tracker

	// Steer enables election re-ranking while over budget; Base is the
	// preference the Preference feedback loop steers from.
	Steer bool
	Base  core.UserPref

	// pol is the policy a steered election ranks by, rebuilt in place
	// by each WrapPolicy call, so steering allocates nothing.
	pol Policy
}

// Init implements sim.Module.
func (m *Module) Init(*sim.Runner) error {
	if m.Tracker == nil {
		return fmt.Errorf("budget: module needs a tracker")
	}
	return nil
}

// OnFinish implements sim.Module: it charges the completion's energy
// share at its virtual finish time, so the burn-down comparison always
// sees consumption dated to when it happened.
func (m *Module) OnFinish(rec sim.TaskRecord) {
	m.Tracker.Charge(rec.Finish, rec.EnergyShareJ)
}

// WrapPolicy implements sim.Module: while consumption runs ahead of
// the linear burn-down the election is re-ranked by the Eq. 6 score
// under the tracker-steered preference (replacing the ranking built
// so far — see the type comment for stack placement); on or under
// pace the base policy passes through untouched. The steered
// preference is resolved once per election — no charge lands while
// one ranks — and the policy returned is valid for this election only.
func (m *Module) WrapPolicy(now float64, t workload.Task, base sched.Policy) sched.Policy {
	if !m.Steer || m.Tracker.BurnError(now) <= 0 {
		return base
	}
	pref := Preference{Tracker: m.Tracker, Base: m.Base}
	m.pol = Policy{Pref: pref, Ops: t.Ops, pinned: true, pref: pref.At(now)}
	return &m.pol
}
