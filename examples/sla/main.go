// SLA walkthrough: deadlines, dollar values and penalty curves as
// scheduling inputs. It prices lateness under the three bundled curve
// shapes, screens tasks through admission control, ranks servers with
// the GREENPERF policy with and without a deadline screen, reorders a
// backlog with EDF, and runs the energy-only vs SLA-aware vs
// SLA+carbon comparison on a trimmed scenario.
package main

import (
	"fmt"
	"os"

	"greensched/internal/estvec"
	"greensched/internal/experiments"
	"greensched/internal/sched"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// sed builds the estimation vector of an active SED whose queue holds
// waitSec seconds of work.
func sed(name string, flops, watts, waitSec float64) *estvec.Vector {
	return estvec.New(name).
		Set(estvec.TagFlops, flops).
		Set(estvec.TagPowerW, watts).
		Set(estvec.TagGreenPerf, watts/flops).
		Set(estvec.TagWaitSec, waitSec).
		SetBool(estvec.TagActive, true)
}

func main() {
	// Penalty curves price lateness: a result is worth its class's
	// value on time, and the curve says how fast that value decays.
	curves := []sla.Curve{
		sla.HardDrop{},
		sla.LinearDecay{DecaySec: 300, Floor: 0},
		sla.Stepped{Steps: []sla.Step{{AfterSec: 0, Retained: 0.5}, {AfterSec: 60, Retained: 0}, {AfterSec: 300, Retained: -0.25}}},
	}
	fmt.Println("Retained value fraction by lateness:")
	fmt.Printf("  %-12s", "lateness")
	for _, c := range curves {
		fmt.Printf("  %12s", c.Name())
	}
	fmt.Println()
	for _, late := range []float64{0, 30, 150, 600} {
		fmt.Printf("  %9.0f s ", late)
		for _, c := range curves {
			fmt.Printf("  %12.2f", c.Retained(late))
		}
		fmt.Println()
	}

	// Admission control refuses work that provably earns nothing: the
	// best case for this task is 300 s, so a 120 s deadline under a
	// hard-drop contract would only burn joules.
	adm := sla.Admission{}
	hard := sla.Terms{Class: "deadline", Deadline: 120, ValueUSD: 0.5, Curve: sla.HardDrop{}}
	soft := sla.Terms{Class: "report", Deadline: 120, ValueUSD: 0.5, Curve: sla.LinearDecay{DecaySec: 3600}}
	fmt.Printf("\nAdmission at t=0 with a 300 s best case:\n")
	fmt.Printf("  hard-drop 120 s deadline: %s\n", adm.Decide(0, 300, hard))
	fmt.Printf("  linear-decay same deadline: %s (late work still pays)\n", adm.Decide(0, 300, soft))

	// Deadline-aware ranking: the greener server loses the election
	// when only the faster one can meet the deadline.
	servers := estvec.List{
		sed("lean-queued", 5e9, 150, 900),
		sed("fast-free", 5e9, 300, 0),
	}
	ops := 1e12 // 200 s of work
	greenPerf := sched.New(sched.GreenPerf)
	fmt.Println("\nServer ranking for a 500 s deadline:")
	for _, p := range []sched.Policy{greenPerf, sched.DeadlineAware{Base: greenPerf, Ops: ops, Deadline: 500}} {
		servers.SortStable(p.Less)
		fmt.Printf("  by %-20s %s first\n", p.Name()+":", servers[0].Server)
	}

	// Queue disciplines decide who gets the next free slot.
	backlog := []sched.TaskView{
		{ID: 0, Ops: 2e12, Submit: 0},                             // batch, no deadline
		{ID: 1, Ops: 1e11, Submit: 5, Deadline: 120, Value: 2},    // interactive
		{ID: 2, Ops: 1e12, Submit: 2, Deadline: 1800, Value: 0.5}, // report
	}
	edf := sched.NewOrder(sched.EDF)
	next := backlog[0]
	for _, v := range backlog[1:] {
		if edf.Less(v, next) {
			next = v
		}
	}
	fmt.Printf("\nEDF pops task %d (deadline %v) from the backlog; FIFO would run task 0.\n", next.ID, next.Deadline)

	// The full study on a trimmed evening mix: FIFO + energy-only
	// placement forfeits the deadline revenue that EDF + admission
	// recovers; the carbon run defers only the batch.
	cfg := experiments.DefaultSLAConfig()
	cfg.BatchTasks = 24
	cfg.DeadlineTasks = 6
	cfg.InteractiveTasks = 10
	cfg.HopelessTasks = 2
	res, err := experiments.RunSLAStudy(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println()
	if err := res.Render(os.Stdout); err != nil {
		panic(err)
	}

	// Every task stream can also be written to (and replayed from) a
	// trace file with the SLA columns.
	tasks, err := workload.BurstThenRate{Total: 2, Burst: 2, Ops: 1e12, Class: sla.ClassDeadline, RelDeadline: 900}.Tasks()
	if err != nil {
		panic(err)
	}
	fmt.Println("\nTrace dialect with SLA columns:")
	if err := workload.WriteTrace(os.Stdout, tasks); err != nil {
		panic(err)
	}
}
