package consolidation

import (
	"math"
	"sort"

	"greensched/internal/power"
	"greensched/internal/sched"
	"greensched/internal/sim"
)

// preemptForUrgent reclaims a slot for deadline traffic by
// checkpointing the cheapest safe victim on a node whose queue holds
// at-risk deadline work (sim.Control.QueuedAtRisk). An elected
// request never migrates — the SED keeps its problem — so
// express-booting a dark node cannot rescue work already queued behind
// full slots; displacing a running victim in place can, and usually
// for fewer joules than one boot transient. Victims are ranked by
// sched.VictimLess (lowest value density, most slack first) and a
// candidate is taken only when its re-executed work costs no more than
// the cheapest boot alternative (or nothing is left to boot); the
// simulator's own safety calculus still rejects any victim whose
// deadline the restart would breach. Returns true when a victim was
// displaced.
func preemptForUrgent(now float64, ctl sim.Control, nodes []sim.NodeView) bool {
	bootJ := math.Inf(1)
	for _, n := range nodes {
		if n.State == power.Off {
			if j := n.BootSec * n.BootW; j < bootJ {
				bootJ = j
			}
		}
	}
	type candidate struct {
		node  string
		id    int
		costJ float64
		view  sched.VictimView
	}
	var cands []candidate
	for _, n := range nodes {
		if n.State != power.On || n.Running < n.Slots || !ctl.QueuedAtRisk(n.Name) {
			continue
		}
		for _, rv := range ctl.Running(n.Name) {
			view := sched.NewVictimView(sched.TaskView{
				ID: rv.TaskID, Ops: rv.Ops, Deadline: rv.Deadline, Value: rv.ValueUSD,
			}, now, rv.RemainingSec)
			cands = append(cands, candidate{node: n.Name, id: rv.TaskID, costJ: rv.RedoSec * n.TaskW, view: view})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return sched.VictimLess(cands[a].view, cands[b].view) })
	for _, c := range cands {
		if c.costJ > bootJ {
			continue // torching this much batch beats nothing: boot instead
		}
		if ctl.Preempt(c.node, c.id) == nil {
			return true
		}
	}
	return false
}
