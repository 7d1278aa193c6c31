package consolidation

import (
	"fmt"
	"sort"

	"greensched/internal/carbon"
	"greensched/internal/power"
	"greensched/internal/sim"
)

// CarbonController extends the idle-shutdown controller with grid
// awareness: it shifts deferrable work and shutdown windows into
// low-carbon periods.
//
// Because an elected request never migrates (the SED keeps its
// problem, §III-A step 5), temporal shifting must happen at election
// time: the controller opens and closes *candidacy windows*. A node is
// electable only while its site's grid is clean (intensity ≤ CleanG);
// outside the window every candidacy is revoked, so new arrivals stay
// unplaced and simply wait — work already accepted keeps running. The
// wait is bounded: once unplaced work has aged MaxDeferSec, the
// controller force-opens every site until the backlog drains, which
// caps the makespan cost of being green.
//
//   - Wake: when a window is open and backlog exists, Off nodes at
//     open sites boot, cleanest grid first.
//   - Shutdown: idle nodes on a dirty grid (intensity ≥ DirtyG) are
//     shut down immediately — every idle second there burns the idle
//     floor at peak grams — others after IdleTimeout; dirtiest site
//     first; MinOn nodes stay powered for fast window-open reaction.
//
// Pair it with Config.RetryEvery of a minute or so: deferred requests
// re-try election on that cadence.
type CarbonController struct {
	// Profile maps each node's cluster to its site's grid signal.
	Profile *carbon.Profile

	// CleanG is the intensity (gCO2/kWh) at or below which a site's
	// candidacy window is open. DirtyG is the level at or above which
	// idle capacity is shed immediately; between the two, idle nodes
	// get the normal IdleTimeout grace. CleanG < DirtyG.
	CleanG float64
	DirtyG float64

	// IdleTimeout powers an idle node off after this much workless
	// time while its grid is below DirtyG (seconds).
	IdleTimeout float64
	// MinOn is the number of nodes always kept powered on (0 allows a
	// fully dark platform between windows; booting costs BootSec on
	// window open).
	MinOn int
	// MaxDeferSec bounds how long unplaced work may wait for a clean
	// window before every site is force-opened.
	MaxDeferSec float64

	// DeadlineSlackSec, when positive, subordinates energy savings to
	// admitted SLAs: whenever the tightest pending deadline margin
	// (sim Control.PendingSlack) falls to or below this guard,
	// shutdowns pause and — if no node is powered — the cleanest Off
	// node boots as *express capacity* for the deadline traffic
	// (which reaches it through the sla.Config.UrgentBypass lane).
	// The candidacy windows themselves stay closed, so deferred batch
	// work cannot ride the emergency: carbon deferral consumes only a
	// task's surplus slack, never seconds the deadline needs, and the
	// grid-window discipline survives intact. 0 keeps the SLA-blind
	// behaviour.
	DeadlineSlackSec float64

	// PreemptBatch, with a sim.PreemptModule in the stack,
	// lets the urgent path checkpoint a cheap running victim on a node
	// whose queue holds at-risk deadline work instead of express-
	// booting a dark node the queued work could never migrate to —
	// chosen when the re-executed work costs fewer joules than a boot
	// transient.
	PreemptBatch bool

	deferring  bool
	deferSince float64
}

// Validate checks the controller parameters.
func (c *CarbonController) Validate() error {
	switch {
	case c.Profile == nil:
		return fmt.Errorf("consolidation: carbon controller needs a profile")
	case c.CleanG < 0 || c.DirtyG <= c.CleanG:
		return fmt.Errorf("consolidation: thresholds clean=%v dirty=%v must satisfy 0 ≤ clean < dirty", c.CleanG, c.DirtyG)
	case c.IdleTimeout <= 0:
		return fmt.Errorf("consolidation: IdleTimeout %v must be positive", c.IdleTimeout)
	case c.MinOn < 0:
		return fmt.Errorf("consolidation: MinOn %d must be non-negative", c.MinOn)
	case c.MaxDeferSec <= 0:
		return fmt.Errorf("consolidation: MaxDeferSec %v must be positive (it bounds the makespan cost)", c.MaxDeferSec)
	case c.DeadlineSlackSec < 0:
		return fmt.Errorf("consolidation: DeadlineSlackSec %v must be non-negative", c.DeadlineSlackSec)
	}
	return nil
}

// Tick implements the carbon-aware power-management step; Module
// calls it on every control tick.
func (c *CarbonController) Tick(now float64, ctl sim.Control) {
	nodes := ctl.Nodes()
	intensity := make([]float64, len(nodes))
	for i, n := range nodes {
		intensity[i] = c.Profile.IntensityAt(n.Cluster, now)
	}

	// Deferral clock: it starts when unplaced work appears and resets
	// when the backlog drains.
	if ctl.Unplaced() > 0 {
		if !c.deferring {
			c.deferring = true
			c.deferSince = now
		}
	} else {
		c.deferring = false
	}
	forced := c.deferring && now-c.deferSince >= c.MaxDeferSec

	// SLA guard: an admitted deadline inside the guard margin trumps
	// energy savings (but not the windows — deferred work stays
	// deferred; the express lane only needs powered capacity).
	urgent := false
	if c.DeadlineSlackSec > 0 {
		if slack, ok := ctl.PendingSlack(); ok && slack <= c.DeadlineSlackSec {
			urgent = true
		}
	}

	open := func(i int) bool { return forced || intensity[i] <= c.CleanG }

	// Candidacy follows the window.
	for i, n := range nodes {
		if n.Candidate != open(i) {
			_ = ctl.SetCandidate(n.Name, open(i))
		}
	}

	// Wake path: cover the net backlog with nodes at open sites,
	// cleanest grid first. Only unplaced work counts as backlog: a
	// queued task never migrates (the SED keeps its problem), so
	// booting another node for it would burn idle joules on capacity
	// that can never take the work.
	backlog := ctl.Unplaced()
	free, inbound, powered := 0, 0, 0
	for i, n := range nodes {
		if n.State == power.On {
			powered++
		}
		if !open(i) {
			continue
		}
		switch n.State {
		case power.On:
			if f := n.Slots - n.Running; f > 0 {
				free += f
			}
		case power.Booting:
			inbound += n.Slots
		}
	}
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	if need := backlog - free - inbound; need > 0 {
		sort.SliceStable(order, func(a, b int) bool { return intensity[order[a]] < intensity[order[b]] })
		for _, i := range order {
			if need <= 0 {
				break
			}
			if !open(i) || nodes[i].State.Usable() {
				continue
			}
			if err := ctl.PowerOn(nodes[i].Name); err == nil {
				need -= nodes[i].Slots
			}
		}
	}

	// SLA express boot: a deadline is inside the guard margin and the
	// platform is dark — boot the cleanest node so the bypass lane has
	// somewhere to land. Shutdowns pause while the deadline is tight;
	// shedding capacity now would spend the very seconds it needs.
	// Deadline work already stuck in a full node's queue is instead
	// rescued in place by preempting a cheap victim (fresh capacity
	// could never take it).
	if urgent {
		if c.PreemptBatch && preemptForUrgent(now, ctl, nodes) {
			return
		}
		usable := 0
		for _, n := range nodes {
			if n.State.Usable() {
				usable++
			}
		}
		if usable == 0 {
			sort.SliceStable(order, func(a, b int) bool { return intensity[order[a]] < intensity[order[b]] })
			for _, i := range order {
				if nodes[i].State == power.Off && ctl.PowerOn(nodes[i].Name) == nil {
					// PowerOn restores candidacy; re-close it when the
					// site's window is shut so the deferred backlog
					// cannot ride the emergency boot — only the bypass
					// lane may use this node.
					if !open(i) {
						_ = ctl.SetCandidate(nodes[i].Name, false)
					}
					break
				}
			}
		}
		return
	}

	// Shutdown path: dirty-grid idle nodes go down immediately,
	// others after the timeout; dirtiest site first, keeping MinOn
	// nodes powered.
	sort.SliceStable(order, func(a, b int) bool { return intensity[order[a]] > intensity[order[b]] })
	for _, i := range order {
		if powered <= c.MinOn {
			break
		}
		n := nodes[i]
		if n.State != power.On || n.Running > 0 || n.Queued > 0 {
			continue
		}
		// Never shed an electable node while backlog is waiting for
		// it — the wake path counted its free slots.
		if open(i) && backlog > 0 {
			continue
		}
		grace := c.IdleTimeout
		if intensity[i] >= c.DirtyG {
			grace = 0
		}
		if n.Idle < grace {
			continue
		}
		if err := ctl.PowerOff(n.Name); err == nil {
			powered--
		}
	}
}
