package sim

import (
	"fmt"
	"slices"
	"sort"

	"greensched/internal/power"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// This file is the simulator's generic control-plane hook: an external
// controller (package consolidation, the §IV-C provisioning planner in
// package experiments, or any future autonomic manager) observes node
// state on a fixed virtual-time cadence through Module.OnTick and
// issues power-on/power-off decisions. A module that also implements
// Feeder is a closed-loop client: it submits work through the same
// Control whenever capacity may have freed.

// NodeView is the controller-visible state of one SED at a tick.
type NodeView struct {
	Name    string
	Cluster string
	State   power.State
	Slots   int     // concurrent task capacity
	Running int     // tasks executing now
	Queued  int     // tasks waiting in the SED queue
	Idle    float64 // seconds since the node last had work; 0 when busy

	// Candidate reports whether the SED may be elected for new work.
	// PowerOff clears it; PowerOn restores it.
	Candidate bool

	// BootSec and BootW are the node's boot transient (duration and
	// draw), and TaskW its marginal per-core busy draw — the quantities
	// controllers weigh when choosing between booting dark capacity and
	// preempting in place.
	BootSec float64
	BootW   float64
	TaskW   float64

	// PowerW is the node's instantaneous draw at the tick — the signal
	// monitoring modules (e.g. telemetry) integrate.
	PowerW float64
}

// RunningView is the controller-visible state of one executing task —
// the victim description Control.Preempt decisions rank on.
type RunningView struct {
	TaskID int
	Class  string
	// Deadline and ValueUSD are the task's resolved terms (deadline 0
	// = none).
	Deadline float64
	ValueUSD float64
	// Ops is the work this execution segment set out to do (remaining
	// work after any earlier checkpoints).
	Ops float64
	// Started is when the current segment began; RemainingSec the run
	// time left on this node if undisturbed.
	Started      float64
	RemainingSec float64
	// RedoSec estimates the execution seconds a checkpoint now would
	// re-execute after restart (the restart penalty's share of the
	// elapsed segment); 0 while preemption is disabled.
	RedoSec float64
}

// Control is the surface handed to Module.OnTick each tick and to
// Feeder.Feed. All operations happen at that call's virtual time.
type Control interface {
	// Nodes lists every SED in platform order.
	Nodes() []NodeView
	// Unplaced counts submitted tasks that no server could accept
	// (they retry every Config.RetryEvery virtual seconds) — backlog
	// pressure that the controller should answer by powering nodes
	// on or restoring candidacy.
	Unplaced() int
	// PowerOff shuts an idle node down and removes it from candidacy.
	// It refuses nodes that are not On, still have work, or are the
	// last candidate.
	PowerOff(name string) error
	// PowerOn boots an Off node (or restores candidacy to a drained
	// one). Capacity becomes available after the node's boot time.
	PowerOn(name string) error
	// SetCandidate gates a node's eligibility for new work without
	// changing its power state: a powered-on non-candidate finishes
	// its accepted queue but receives no further elections. Revoking
	// every candidacy defers all new arrivals (they retry every
	// Config.RetryEvery seconds) — the primitive behind shifting
	// deferrable work into low-carbon windows.
	SetCandidate(name string, candidate bool) error
	// PendingSlack returns the tightest deadline margin across tasks
	// that have not started yet (unplaced arrivals and queued work):
	// min over them of deadline − now − best-case execution time. ok
	// is false when no pending task carries a deadline. Controllers
	// that defer work or shut capacity down must keep this positive —
	// a deferral past it provably breaks an admitted task's SLA.
	PendingSlack() (slack float64, ok bool)
	// QueuedAtRisk reports whether the named node's queue holds a
	// deadline task that waiting for the node's running work would
	// provably breach while an immediate start would still meet — the
	// preemption trigger: queued work cannot migrate (the SED keeps its
	// problem), so booting capacity elsewhere cannot rescue it, but
	// checkpointing a victim here can. False for unknown nodes, empty
	// queues and nodes with a free slot. It walks the node's queue, so
	// controllers ask only about nodes they would preempt on.
	QueuedAtRisk(name string) bool
	// Running lists the named node's executing tasks (sorted by task
	// ID) — the victim candidates for Preempt. Nil for unknown nodes.
	Running(name string) []RunningView
	// Preempt checkpoints one running task: its completed Ops fraction
	// is retained minus the PreemptModule's restart penalty, the
	// executed segment keeps its energy/CO2 charge, the remainder
	// re-enters election, and the freed slot immediately drains the
	// node's queue. It refuses unknown nodes or tasks, runs without a
	// PreemptModule, zero-progress segments, and victims whose own
	// deadline the restart would breach — preemption may never
	// manufacture a new SLA miss.
	Preempt(name string, taskID int) error
	// Submit admits a task now, stamped with the control's instant, on
	// the path every arrival takes (modules' OnArrival, admission,
	// election). It refuses a malformed task.
	Submit(t workload.Task) error
	// EnergyJ settles every node at the control's instant and returns
	// the platform's energy so far.
	EnergyJ() float64
}

// Feeder is the optional Module surface of a closed-loop client: the
// kernel calls Feed at run start and after every task finish and boot
// completion — each point where capacity may have freed — and the
// feeder submits work through Control.Submit, so Config.Tasks may be
// empty. The run ends when every submitted task has resolved: a feeder
// that lets its work run out is not called again.
type Feeder interface {
	Feed(now float64, ctl Control)
}

// runnerControl implements Control against a Runner at a fixed tick
// time.
type runnerControl struct {
	r   *Runner
	now float64
}

func (c *runnerControl) Nodes() []NodeView {
	out := make([]NodeView, 0, len(c.r.seds))
	for _, sed := range c.r.seds {
		spec := sed.node.Spec
		v := NodeView{
			Name:      spec.Name,
			Cluster:   spec.Cluster,
			State:     sed.node.State(),
			Slots:     sed.slots,
			Running:   len(sed.running),
			Queued:    sed.qlen(),
			Candidate: sed.candidate,
			BootSec:   spec.BootSec,
			BootW:     float64(spec.BootW),
			TaskW:     float64(spec.PeakW-spec.IdleW) / float64(spec.Cores),
			PowerW:    sed.node.Power(),
		}
		if v.State == power.On && v.Running == 0 && v.Queued == 0 {
			v.Idle = c.now - sed.idleAt
		}
		out = append(out, v)
	}
	return out
}

func (c *runnerControl) QueuedAtRisk(name string) bool {
	sed := c.r.sedByName(name)
	if sed == nil || sed.qlen() == 0 || sed.freeSlots() > 0 {
		return false
	}
	// Earliest slot release: the head-of-queue wait under any work-
	// conserving discipline.
	wait := sed.nextRelease(c.now)
	for _, p := range sed.queued() {
		if p.removed {
			continue
		}
		view := c.r.taskView(p.task)
		if view.Deadline <= 0 {
			continue
		}
		exec := sed.node.Spec.TaskSeconds(p.task.Ops)
		if c.now+wait+exec > view.Deadline && c.now+exec <= view.Deadline {
			return true
		}
	}
	return false
}

func (c *runnerControl) Running(name string) []RunningView {
	sed := c.r.sedByName(name)
	if sed == nil {
		return nil
	}
	out := make([]RunningView, 0, len(sed.running))
	for _, rt := range sed.running {
		terms := c.r.victimTerms(rt.task)
		rv := RunningView{
			TaskID:       rt.task.ID,
			Class:        rt.task.Class,
			Deadline:     terms.Deadline,
			ValueUSD:     terms.ValueUSD,
			Ops:          rt.task.Ops,
			Started:      rt.start,
			RemainingSec: rt.finishAt - c.now,
		}
		if pre := c.r.pre; pre != nil {
			done := c.r.doneOps(c.now, rt)
			rv.RedoSec = sed.node.Spec.TaskSeconds(pre.RedoneOps(done))
		}
		out = append(out, rv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TaskID < out[j].TaskID })
	return out
}

func (c *runnerControl) Preempt(name string, taskID int) error {
	if c.r.pre == nil {
		return fmt.Errorf("sim: Preempt of %s/%d with preemption disabled", name, taskID)
	}
	sed := c.r.sedByName(name)
	if sed == nil {
		return fmt.Errorf("sim: Preempt on unknown node %q", name)
	}
	i := slices.IndexFunc(sed.running, func(rt *runningTask) bool { return rt.task.ID == taskID })
	if i < 0 {
		return fmt.Errorf("sim: Preempt of task %d not running on %s", taskID, name)
	}
	rt := sed.running[i]
	if c.now <= rt.start {
		return fmt.Errorf("sim: Preempt of task %d with zero progress on %s", taskID, name)
	}
	// The freed slot goes to the queue first, so the victim waits at
	// least that task's execution before it can restart here — that
	// occupancy must not push the victim past its own deadline.
	occupied := 0.0
	if sed.qlen() > 0 {
		occupied = sed.node.Spec.TaskSeconds(sed.queued()[sed.nextQueued()].task.Ops)
	}
	if !sla.SafeToDisplace(c.now, occupied, c.r.restartRemainingSec(c.now, sed, rt), c.r.victimTerms(rt.task)) {
		return fmt.Errorf("sim: Preempt of task %d would breach its own deadline", taskID)
	}
	c.r.preempt(c.now, sed, rt)
	c.r.drainQueue(c.now, sed)
	return nil
}

func (c *runnerControl) Unplaced() int { return c.r.unplaced }

func (c *runnerControl) Submit(t workload.Task) error {
	t.Submit = c.now
	if err := t.Validate(); err != nil {
		return err
	}
	c.r.fed++
	c.r.onArrival(c.now, pendingTask{task: t})
	return nil
}

func (c *runnerControl) EnergyJ() float64 {
	total := 0.0
	for _, sed := range c.r.seds {
		sed.node.Settle(c.now)
		total += sed.node.Energy()
	}
	return total
}

func (c *runnerControl) PendingSlack() (float64, bool) {
	best, ok := 0.0, false
	consider := func(t workload.Task, execSec float64) {
		view := c.r.taskView(t)
		if view.Deadline <= 0 {
			return
		}
		slack := view.Deadline - c.now - execSec
		if !ok || slack < best {
			best, ok = slack, true
		}
	}
	// Unplaced tasks can still land anywhere: best case is the
	// platform's fastest node.
	for _, t := range c.r.waiting {
		consider(t, c.r.bestExec(t.Ops))
	}
	// Queued tasks cannot migrate (the SED keeps its problem, §III-A
	// step 5): their bound is the owning node's own execution time.
	for _, sed := range c.r.seds {
		for _, p := range sed.queued() {
			if !p.removed {
				consider(p.task, sed.node.Spec.TaskSeconds(p.task.Ops))
			}
		}
	}
	return best, ok
}

func (c *runnerControl) PowerOff(name string) error {
	sed := c.r.sedByName(name)
	if sed == nil {
		return fmt.Errorf("sim: PowerOff of unknown node %q", name)
	}
	if sed.node.State() != power.On {
		return fmt.Errorf("sim: PowerOff of %s in state %v", name, sed.node.State())
	}
	if len(sed.running) > 0 || sed.qlen() > 0 {
		return fmt.Errorf("sim: PowerOff of %s with %d running / %d queued tasks",
			name, len(sed.running), sed.qlen())
	}
	if c.candidates() <= 1 && sed.candidate {
		return fmt.Errorf("sim: PowerOff of %s would leave no candidate", name)
	}
	if err := sed.node.PowerOff(c.now); err != nil {
		return err
	}
	sed.candidate = false
	c.r.res.Shutdowns++
	return nil
}

func (c *runnerControl) PowerOn(name string) error {
	sed := c.r.sedByName(name)
	if sed == nil {
		return fmt.Errorf("sim: PowerOn of unknown node %q", name)
	}
	switch sed.node.State() {
	case power.On:
		sed.candidate = true // drained node returning to candidacy
		return nil
	case power.Booting:
		return nil // boot already in flight
	}
	done, err := sed.node.PowerOn(c.now)
	if err != nil {
		return err
	}
	sed.candidate = true
	sed.failed = false // booting a crashed node repairs it
	c.r.res.Boots++
	c.r.q.Push(done, event{kind: evBootDone, ref: int32(sed.idx)})
	return nil
}

// onBootDone brings a booting node on line; a node whose boot was
// overtaken (crashed, powered off again) is left alone.
func (r *Runner) onBootDone(now float64, sed *sedState) {
	if sed.node.State() != power.Booting {
		return
	}
	if err := sed.node.BootDone(now); err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	sed.idleAt = now
	if len(r.feeders) > 0 {
		r.feed(now)
	}
}

func (c *runnerControl) SetCandidate(name string, candidate bool) error {
	sed := c.r.sedByName(name)
	if sed == nil {
		return fmt.Errorf("sim: SetCandidate of unknown node %q", name)
	}
	sed.candidate = candidate
	return nil
}

func (c *runnerControl) candidates() int {
	n := 0
	for _, sed := range c.r.seds {
		if sed.candidate {
			n++
		}
	}
	return n
}

// sedByName resolves a node name via the platform index.
func (r *Runner) sedByName(name string) *sedState {
	idx := r.cfg.Platform.Find(name)
	if idx < 0 {
		return nil
	}
	return r.seds[idx]
}

// onTick runs the recurring controller tick: every module's OnTick
// runs in stack order against one shared Control surface. Ticking
// stops once every submitted task has resolved so the event queue can
// drain.
func (r *Runner) onTick(now float64) {
	if r.resolved() >= r.submitted() {
		return
	}
	ctl := r.control(now)
	for _, m := range r.cfg.Modules {
		m.OnTick(now, ctl)
	}
	r.after(r.cfg.ControlEvery, event{kind: evTick})
}
