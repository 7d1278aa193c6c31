// Package consolidation implements the related-work baseline the
// paper positions itself against (§II-B): load concentration with idle
// shutdown, in the style of Hermenier et al. [11] and the Green Open
// Cloud architecture of Orgerie & Lefèvre [12].
//
// It has two cooperating halves:
//
//   - Policy, a plug-in scheduler that concentrates tasks onto the
//     fewest nodes (most-loaded-but-not-full first) — energy-blind
//     placement, unlike GreenPerf;
//   - Controller, a sim.Control client that powers nodes off after an
//     idle timeout and back on when unplaced requests build up.
//
// Together they save energy on under-utilized platforms exactly where
// GreenPerf alone cannot: GreenPerf reduces the draw of the *active*
// servers but leaves idle servers burning their idle floor, which the
// paper itself concedes in §IV-C by resorting to shutdowns. The
// extension experiment (experiments.RunConsolidation) quantifies both
// effects and their combination.
package consolidation

import (
	"fmt"

	"greensched/internal/estvec"
	"greensched/internal/power"
	"greensched/internal/sched"
	"greensched/internal/sim"
)

// PolicyName identifies the concentration policy in reports.
const PolicyName = "CONSOLIDATION"

// Policy orders servers for load concentration: the most loaded
// not-yet-full server first, so new work fills partially busy nodes
// before opening fresh ones, and whole nodes drain to idle sooner.
// Ties break toward smaller remaining capacity, then node name, which
// pins the concentration order and keeps elections deterministic.
//
// The ordering is intentionally energy-blind — this is the related-work
// baseline, not the paper's contribution. Combine it with GreenPerf by
// wrapping (see GreenTieBreak) to concentrate onto efficient nodes.
type Policy struct{}

// Name implements sched.Policy.
func (Policy) Name() string { return PolicyName }

// Less implements sched.Policy.
func (Policy) Less(a, b *estvec.Vector) bool {
	ba, bb := busy(a), busy(b)
	if ba != bb {
		return ba > bb // more loaded first
	}
	fa := a.Value(estvec.TagFreeCores, 0)
	fb := b.Value(estvec.TagFreeCores, 0)
	if fa != fb {
		return fa < fb // tighter fit first
	}
	return a.Server < b.Server
}

// GreenTieBreak concentrates like Policy but breaks load ties by
// GreenPerf ratio instead of name — the natural composition of the
// related-work baseline with the paper's metric.
type GreenTieBreak struct{}

// Name implements sched.Policy.
func (GreenTieBreak) Name() string { return "CONSOLIDATION+GREENPERF" }

// Less implements sched.Policy.
func (GreenTieBreak) Less(a, b *estvec.Vector) bool {
	ba, bb := busy(a), busy(b)
	if ba != bb {
		return ba > bb
	}
	less := estvec.ByTagAsc(estvec.TagGreenPerf,
		estvec.ByTagDesc(estvec.TagFlops, estvec.ByServerName))
	return less(a, b)
}

func busy(v *estvec.Vector) float64 {
	cores := v.Value(sched.TagCores(), 0)
	free := v.Value(estvec.TagFreeCores, 0)
	if cores <= 0 {
		// No capacity tag: treat occupied as busy=1, free as busy=0.
		if free > 0 {
			return 0
		}
		return 1
	}
	return cores - free
}

// Controller is an idle-timeout power manager driven by the
// simulator's control tick (mount it with Module).
type Controller struct {
	// IdleTimeout powers a node off after this much workless time
	// (seconds). Must be positive.
	IdleTimeout float64
	// MinOn is the number of candidate nodes always kept available
	// (≥1; the grid must keep answering requests — §II-B notes
	// management tools treat powered-off resources as failures, so a
	// floor is operationally mandatory).
	MinOn int

	// DeadlineSlackSec, when positive, makes the controller refuse
	// energy savings that would breach an admitted task's deadline:
	// while the tightest pending deadline margin (sim
	// Control.PendingSlack) is at or below this guard, shutdowns pause
	// and the backlog is treated as urgent enough to wake capacity
	// even when free slots nominally cover it. 0 keeps the classic
	// SLA-blind behaviour.
	DeadlineSlackSec float64

	// PreemptBatch, with a sim.PreemptModule in the stack,
	// lets the urgent path checkpoint a cheap running victim on a node
	// whose queue holds at-risk deadline work instead of express-
	// booting dark capacity the queued work could never migrate to —
	// chosen when the re-executed work costs fewer joules than a boot
	// transient.
	PreemptBatch bool
}

// Validate checks the controller parameters.
func (c *Controller) Validate() error {
	if c.IdleTimeout <= 0 {
		return fmt.Errorf("consolidation: IdleTimeout %v must be positive", c.IdleTimeout)
	}
	if c.MinOn < 1 {
		return fmt.Errorf("consolidation: MinOn %d must be at least 1", c.MinOn)
	}
	if c.DeadlineSlackSec < 0 {
		return fmt.Errorf("consolidation: DeadlineSlackSec %v must be non-negative", c.DeadlineSlackSec)
	}
	return nil
}

// Tick implements the power-management step; Module calls it on
// every control tick. Wake-ups answer unplaced backlog; shutdowns
// apply the idle timeout while respecting MinOn.
func (c *Controller) Tick(now float64, ctl sim.Control) {
	nodes := ctl.Nodes()

	// SLA guard: while an admitted deadline is within the guard
	// margin, powering down is off the table and waking is urgent.
	urgent := false
	if c.DeadlineSlackSec > 0 {
		if slack, ok := ctl.PendingSlack(); ok && slack <= c.DeadlineSlackSec {
			urgent = true
		}
	}

	// Preemption-first: deadline work stuck in a full node's queue is
	// rescued in place — fresh capacity cannot take it (an elected
	// request never migrates), so a cheap checkpoint beats a boot.
	preempted := false
	if urgent && c.PreemptBatch {
		preempted = preemptForUrgent(now, ctl, nodes)
		if preempted {
			nodes = ctl.Nodes() // refresh: a slot freed and the queue drained
		}
	}

	// How many slots are (or will shortly be) available?
	availOn := 0
	for _, n := range nodes {
		if n.Candidate && n.State.Usable() {
			availOn++
		}
	}

	// Wake path: cover the net backlog (plus slack) with Off nodes, in
	// platform order for determinism. Backlog is unplaced requests
	// plus queued tasks; queued work cannot migrate once elected (the
	// SED keeps its problem, §III-A step 5), but it signals that
	// *future* arrivals need somewhere to go. Netting out free slots
	// and capacity already booting is what prevents wake thrash: a
	// tick must not re-answer pressure the previous tick already paid
	// a boot for.
	backlog := ctl.Unplaced()
	free, inbound := 0, 0
	for _, n := range nodes {
		if !n.Candidate {
			continue
		}
		switch n.State {
		case power.On:
			backlog += n.Queued
			if f := n.Slots - n.Running; f > 0 {
				free += f
			}
		case power.Booting:
			inbound += n.Slots
		}
	}
	need := backlog - free - inbound
	if urgent && !preempted && need <= 0 && backlog > 0 {
		// A deadline is at risk: free slots on loaded nodes may drain
		// too late, so answer the backlog with fresh capacity anyway
		// (unless a preemption just reclaimed a slot in place).
		need = backlog
	}
	for _, n := range nodes {
		if need <= 0 {
			break
		}
		if n.Candidate && n.State.Usable() {
			continue // already counted; its backlog drains by itself
		}
		if err := ctl.PowerOn(n.Name); err == nil {
			need -= n.Slots
			availOn++
		}
	}

	// Shutdown path: idle past the timeout, never below MinOn. Only
	// fully On nodes qualify — a Booting node was just paid for and is
	// about to receive the backlog that woke it. Paused entirely while
	// a pending deadline sits inside the SLA guard: a node shed now
	// costs BootSec to win back, exactly the seconds the task lacks.
	if urgent {
		return
	}
	for _, n := range nodes {
		if availOn <= c.MinOn {
			break
		}
		if !n.Candidate || n.State != power.On {
			continue
		}
		if n.Running > 0 || n.Queued > 0 || n.Idle < c.IdleTimeout {
			continue
		}
		if err := ctl.PowerOff(n.Name); err == nil {
			availOn--
		}
	}
}
