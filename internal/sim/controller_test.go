package sim

import (
	"testing"

	"greensched/internal/cluster"
	"greensched/internal/power"
	"greensched/internal/sched"
	"greensched/internal/workload"
)

// burstGapBurst builds the under-utilization pattern: a burst at t=0,
// a long idle gap, then a second phase that arrives over time (a small
// burst plus a request rate), giving a power-managing controller room
// to react.
func burstGapBurst(t *testing.T, n int, ops, gap float64) []workload.Task {
	t.Helper()
	first, err := workload.BurstThenRate{Total: n, Burst: n, Ops: ops}.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	// The second phase must outrun a single node's service rate (12
	// cores), otherwise the survivor absorbs it and a controller has
	// no reason to boot anything: 1 task/s of ~45 s tasks needs ~4×
	// the capacity one node offers.
	second, err := workload.BurstThenRate{Total: n, Burst: n / 4, Rate: 1.0, Ops: 2 * ops}.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	return workload.Merge(first, workload.Shift(second, gap))
}

// recordingController counts ticks and applies a trivial idle-off /
// backlog-on rule, exercising the Control surface end to end.
type recordingController struct {
	ticks int
}

func (c *recordingController) tick(now float64, ctl Control) {
	c.ticks++
	usable := 0
	for _, n := range ctl.Nodes() {
		if n.Candidate && n.State.Usable() {
			usable++
		}
	}
	pressure := ctl.Unplaced()
	for _, n := range ctl.Nodes() {
		if over := n.Queued - (n.Slots - n.Running); over > 0 {
			pressure += over
		}
	}
	if pressure > 0 {
		for _, n := range ctl.Nodes() {
			if n.State == power.Off {
				if err := ctl.PowerOn(n.Name); err == nil {
					usable++
				}
				break
			}
		}
	}
	for _, n := range ctl.Nodes() {
		if usable <= 1 {
			break
		}
		if n.State == power.On && n.Running == 0 && n.Queued == 0 && n.Idle >= 200 {
			if err := ctl.PowerOff(n.Name); err == nil {
				usable--
			}
		}
	}
}

func TestControllerHookEndToEnd(t *testing.T) {
	platform := cluster.PaperPlatform()
	tasks := burstGapBurst(t, 30, 2e11, 4000)
	ctl := &recordingController{}
	res, err := Run(Config{
		Platform:     platform,
		Policy:       sched.New(sched.Power),
		Tasks:        tasks,
		Seed:         1,
		Modules:      []Module{&HookModule{OnTickFunc: ctl.tick}},
		ControlEvery: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(tasks) {
		t.Fatalf("completed %d of %d", res.Completed, len(tasks))
	}
	if ctl.ticks == 0 {
		t.Fatal("controller never ticked")
	}
	if res.Shutdowns == 0 {
		t.Error("idle gap of 4000 s should trigger shutdowns")
	}
	if res.Boots == 0 {
		t.Error("second burst should trigger boots")
	}
}

func TestControllerSavesEnergyOnIdleGap(t *testing.T) {
	platform := cluster.PaperPlatform()
	tasks := burstGapBurst(t, 30, 2e11, 4000)
	base := Config{
		Platform: platform,
		Policy:   sched.New(sched.Power),
		Tasks:    tasks,
		Seed:     1,
	}
	alwaysOn, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withCtl := base
	ctl := &recordingController{}
	withCtl.Modules = []Module{&HookModule{OnTickFunc: ctl.tick}}
	withCtl.ControlEvery = 60
	managed, err := Run(withCtl)
	if err != nil {
		t.Fatal(err)
	}
	if managed.EnergyJ >= alwaysOn.EnergyJ {
		t.Errorf("idle shutdown must save energy across a %g s gap: managed %.0f J, always-on %.0f J",
			4000.0, managed.EnergyJ, alwaysOn.EnergyJ)
	}
}

func TestControlPowerOffRefusals(t *testing.T) {
	platform := cluster.PaperPlatform()
	tasks := burstGapBurst(t, 4, 2e11, 1500)
	var sawRefusals bool
	hook := func(now float64, ctl Control) {
		nodes := ctl.Nodes()
		// Busy nodes must be refused.
		for _, n := range nodes {
			if n.State == power.On && n.Running > 0 {
				if err := ctl.PowerOff(n.Name); err == nil {
					t.Errorf("PowerOff accepted busy node %s", n.Name)
				} else {
					sawRefusals = true
				}
			}
		}
		if err := ctl.PowerOff("no-such-node"); err == nil {
			t.Error("PowerOff accepted an unknown node")
		}
		if err := ctl.PowerOn("no-such-node"); err == nil {
			t.Error("PowerOn accepted an unknown node")
		}
	}
	if _, err := Run(Config{
		Platform:     platform,
		Policy:       sched.New(sched.Power),
		Tasks:        tasks,
		Seed:         1,
		Modules:      []Module{&HookModule{OnTickFunc: hook}},
		ControlEvery: 30,
	}); err != nil {
		t.Fatal(err)
	}
	if !sawRefusals {
		t.Error("test never observed a busy node at a tick; widen the workload")
	}
}

func TestControlNeverLeavesZeroCandidates(t *testing.T) {
	platform := cluster.PaperPlatform()
	tasks := burstGapBurst(t, 2, 2e11, 3000)
	hook := func(now float64, ctl Control) {
		// Adversarial: try to power off everything every tick.
		for _, n := range ctl.Nodes() {
			ctl.PowerOff(n.Name) //nolint:errcheck // refusals expected
		}
		candidates := 0
		for _, n := range ctl.Nodes() {
			if n.Candidate {
				candidates++
			}
		}
		if candidates < 1 {
			t.Fatal("control surface allowed zero candidates")
		}
	}
	res, err := Run(Config{
		Platform:     platform,
		Policy:       sched.New(sched.Power),
		Tasks:        tasks,
		Seed:         1,
		Modules:      []Module{&HookModule{OnTickFunc: hook}},
		ControlEvery: 45,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(tasks) {
		t.Fatalf("completed %d of %d with adversarial controller", res.Completed, len(tasks))
	}
}

func TestUnplacedCountReturnsToZero(t *testing.T) {
	platform := cluster.PaperPlatform()
	tasks := burstGapBurst(t, 10, 2e11, 2500)
	var maxUnplaced int
	hook := func(now float64, ctl Control) {
		if u := ctl.Unplaced(); u > maxUnplaced {
			maxUnplaced = u
		}
		// Idle-off quickly so the second burst finds everything off.
		usable := 0
		for _, n := range ctl.Nodes() {
			if n.Candidate && n.State.Usable() {
				usable++
			}
		}
		for _, n := range ctl.Nodes() {
			if usable <= 1 {
				break
			}
			if n.State == power.On && n.Running == 0 && n.Queued == 0 && n.Idle >= 60 {
				if ctl.PowerOff(n.Name) == nil {
					usable--
				}
			}
		}
		if ctl.Unplaced() > 0 {
			for _, n := range ctl.Nodes() {
				if n.State == power.Off {
					ctl.PowerOn(n.Name) //nolint:errcheck
				}
			}
		}
	}
	res, err := Run(Config{
		Platform:     platform,
		Policy:       sched.New(sched.Power),
		Tasks:        tasks,
		Seed:         1,
		Modules:      []Module{&HookModule{OnTickFunc: hook}},
		ControlEvery: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(tasks) {
		t.Fatalf("completed %d of %d", res.Completed, len(tasks))
	}
	if maxUnplaced == 0 {
		t.Log("note: no unplaced backlog observed (nodes stayed up); counter still sane")
	}
}

// closedLoop is a feeder-only client: it keeps every slot of the
// platform busy until it has submitted total tasks, tries one malformed
// submission first, and reads the platform energy at every tick.
type closedLoop struct {
	BaseModule
	total, fed int
	refused    error
	energy     []float64
}

func (c *closedLoop) Feed(now float64, ctl Control) {
	if c.fed == 0 {
		c.refused = ctl.Submit(workload.Task{ID: -1, Ops: -1})
	}
	inFlight, slots := ctl.Unplaced(), 0
	for _, n := range ctl.Nodes() {
		inFlight += n.Running + n.Queued
		slots += n.Slots
	}
	for ; inFlight < slots && c.fed < c.total; inFlight++ {
		if err := ctl.Submit(workload.Task{ID: c.fed, Ops: 1e11}); err != nil {
			panic(err)
		}
		c.fed++
	}
}

func (c *closedLoop) OnTick(now float64, ctl Control) {
	c.energy = append(c.energy, ctl.EnergyJ())
}

func TestFeederOnlyRun(t *testing.T) {
	c := &closedLoop{total: 100}
	res, err := runRecorded(Config{
		Platform:     smallPlatform(),
		Policy:       sched.New(sched.Power),
		Modules:      []Module{c},
		ControlEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.refused == nil {
		t.Error("Submit accepted a task with negative ops")
	}
	if res.Completed != c.total || len(res.Records) != c.total {
		t.Fatalf("completed %d (%d records) of %d fed tasks", res.Completed, len(res.Records), c.total)
	}
	for _, rec := range res.Records {
		if rec.Wait() != 0 {
			t.Fatalf("task %d waited %v s; the loop only fills free slots", rec.ID, rec.Wait())
		}
	}
	if len(c.energy) == 0 {
		t.Fatal("no control ticks")
	}
	prev := 0.0
	for _, e := range c.energy {
		if e < prev {
			t.Fatalf("platform energy went backwards: %v after %v", e, prev)
		}
		prev = e
	}
	if prev > res.EnergyJ {
		t.Errorf("energy at the last tick %v exceeds the run's %v", prev, res.EnergyJ)
	}
}

// TestControlQueuedAtRisk: the at-risk query answers for the named SED
// alone. A full SED whose queue holds a deadline task that waiting
// breaches but an immediate start meets is at risk; a full SED whose
// deadline tasks either meet after waiting or miss even when started
// now is not; a SED with a free slot, and an unknown name, never are.
func TestControlQueuedAtRisk(t *testing.T) {
	r, err := NewRunner(Config{
		Platform:     cluster.MustPlatform(cluster.NewNodes("taurus", 3)),
		Policy:       sched.New(sched.GreenPerf),
		Tasks:        tasks(1, 1e11, 1), // never run: the SEDs are set up by hand
		SlotsPerNode: 2,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	flops := r.seds[0].node.Spec.FlopsPerCore
	id := 100
	task := func(sec, deadline float64) pendingTask {
		id++
		return pendingTask{task: workload.Task{ID: id, Ops: sec * flops, Deadline: deadline}}
	}
	// Every SED runs a 1000 s task; taurus-0 and taurus-1 run two, so
	// their earliest slot frees at t=1000.
	for i, sed := range r.seds {
		for n := 0; n < 2-i/2; n++ {
			r.startTask(0, sed, task(1000, 0))
		}
	}
	r.enqueue(r.seds[0], task(10, 0))    // no deadline
	r.enqueue(r.seds[0], task(10, 100))  // waits to 1010 > 100, now: 10 ≤ 100
	r.enqueue(r.seds[1], task(10, 2000)) // meets after waiting
	r.enqueue(r.seds[1], task(10, 5))    // misses even started now
	r.enqueue(r.seds[2], task(10, 100))  // a free slot: would start now
	ctl := &runnerControl{r: r, now: 0}
	for name, want := range map[string]bool{"taurus-0": true, "taurus-1": false, "taurus-2": false, "nope-0": false} {
		if got := ctl.QueuedAtRisk(name); got != want {
			t.Errorf("QueuedAtRisk(%s) = %v, want %v", name, got, want)
		}
	}
}
