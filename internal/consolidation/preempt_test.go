package consolidation

import (
	"testing"

	"greensched/internal/power"
	"greensched/internal/sim"
)

// TestControllerPreemptsInsteadOfBooting: with PreemptBatch on, the
// idle-shutdown controller rescues at-risk queued deadline work by
// checkpointing the cheap batch victim on the same node instead of
// express-booting dark capacity the queued work could never migrate
// to.
func TestControllerPreemptsInsteadOfBooting(t *testing.T) {
	c := &Controller{IdleTimeout: 600, MinOn: 1, DeadlineSlackSec: 300, PreemptBatch: true}
	slack := 100.0
	ctl := &fakeControl{
		nodes: []sim.NodeView{
			{Name: "n0", State: power.On, Slots: 1, Running: 1, Queued: 1,
				Candidate: true, TaskW: 10, BootSec: 120, BootW: 170},
			{Name: "n1", State: power.Off, Slots: 1, BootSec: 120, BootW: 170},
		},
		atRisk: map[string]bool{"n0": true},
		running: map[string][]sim.RunningView{
			"n0": {{TaskID: 7, Class: "batch", ValueUSD: 0.05, Ops: 1e12, RemainingSec: 500, RedoSec: 20}},
		},
		pendingSlack: &slack,
	}
	c.Tick(0, ctl)
	// Redo cost 20 s × 10 W = 200 J ≪ one 120 s × 170 W boot transient.
	if len(ctl.preempts) != 1 || ctl.preempts[0] != "n0/7" {
		t.Fatalf("preempts %v, want [n0/7]", ctl.preempts)
	}
	if len(ctl.ons) != 0 {
		t.Fatalf("booted %v although preemption reclaimed the slot in place", ctl.ons)
	}
}

// TestControllerBootsWhenPreemptionTooExpensive: a victim whose
// re-executed work would cost more joules than a boot transient is
// left alone; the urgent path falls back to waking capacity.
func TestControllerBootsWhenPreemptionTooExpensive(t *testing.T) {
	c := &Controller{IdleTimeout: 600, MinOn: 1, DeadlineSlackSec: 300, PreemptBatch: true}
	slack := 100.0
	ctl := &fakeControl{
		nodes: []sim.NodeView{
			{Name: "n0", State: power.On, Slots: 1, Running: 1, Queued: 1,
				Candidate: true, TaskW: 10, BootSec: 120, BootW: 170},
			{Name: "n1", State: power.Off, Slots: 1, BootSec: 120, BootW: 170},
		},
		atRisk: map[string]bool{"n0": true},
		running: map[string][]sim.RunningView{
			// 5000 s of redone work at 10 W dwarfs the 20.4 kJ boot.
			"n0": {{TaskID: 7, Class: "batch", ValueUSD: 0.05, Ops: 1e12, RemainingSec: 500, RedoSec: 5000}},
		},
		pendingSlack: &slack,
	}
	c.Tick(0, ctl)
	if len(ctl.preempts) != 0 {
		t.Fatalf("preempted %v although redo work beats a boot", ctl.preempts)
	}
	if len(ctl.ons) != 1 || ctl.ons[0] != "n1" {
		t.Fatalf("woke %v, want the express boot [n1]", ctl.ons)
	}
}

// TestControllerPreemptDisabledByDefault: without PreemptBatch the
// controller keeps the PR-2 behaviour — express boots only.
func TestControllerPreemptDisabledByDefault(t *testing.T) {
	c := &Controller{IdleTimeout: 600, MinOn: 1, DeadlineSlackSec: 300}
	slack := 100.0
	ctl := &fakeControl{
		nodes: []sim.NodeView{
			{Name: "n0", State: power.On, Slots: 1, Running: 1, Queued: 1,
				Candidate: true, TaskW: 10, BootSec: 120, BootW: 170},
			{Name: "n1", State: power.Off, Slots: 1, BootSec: 120, BootW: 170},
		},
		atRisk: map[string]bool{"n0": true},
		running: map[string][]sim.RunningView{
			"n0": {{TaskID: 7, Class: "batch", ValueUSD: 0.05, Ops: 1e12, RemainingSec: 500, RedoSec: 20}},
		},
		pendingSlack: &slack,
	}
	c.Tick(0, ctl)
	if len(ctl.preempts) != 0 {
		t.Fatalf("preempted %v without opting in", ctl.preempts)
	}
	if len(ctl.ons) != 1 {
		t.Fatalf("woke %v, want the boot fallback", ctl.ons)
	}
}

// TestPreemptForUrgentSkipsUnsafeVictims: a Preempt refusal (the
// simulator vetoes victims whose own deadline the restart would
// breach) must not end the search — and with every candidate refused,
// the helper reports failure so the boot fallback still runs.
func TestPreemptForUrgentSkipsUnsafeVictims(t *testing.T) {
	slack := 100.0
	ctl := &fakeControl{
		nodes: []sim.NodeView{
			{Name: "n0", State: power.On, Slots: 1, Running: 1, Queued: 1,
				Candidate: true, TaskW: 10},
		},
		atRisk: map[string]bool{"n0": true},
		running: map[string][]sim.RunningView{
			"n0": {{TaskID: 7, Class: "batch", ValueUSD: 0.05, Ops: 1e12, RemainingSec: 500, RedoSec: 20}},
		},
		pendingSlack: &slack,
		preemptErr:   errRefused,
	}
	if preemptForUrgent(0, ctl, ctl.nodes) {
		t.Fatal("reported success although every Preempt was refused")
	}
}

var errRefused = fmtError("refused")

type fmtError string

func (e fmtError) Error() string { return string(e) }
