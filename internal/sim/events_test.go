package sim

import (
	"strings"
	"testing"

	"greensched/internal/cluster"
	"greensched/internal/sched"
	"greensched/internal/workload"
)

// This file pins the kernel's event rules: a finish is cancelled by
// bumping its runningTask's generation, the record left on the heap
// pops stale and is skipped, and only live events count toward the
// runaway guard's event budget.

// TestCancelledFinishNeverFires crashes the node running a task. The
// task's finish record stays on the heap; the crash frees its
// runningTask, and the resubmission restarts the task on the slower
// node at the same instant in that very slot. The stale record pops
// first — the fast node's finish time is earlier — and must not finish
// the slot's new occupant.
func TestCancelledFinishNeverFires(t *testing.T) {
	platform := cluster.MustPlatform(cluster.NewNodes("taurus", 1), cluster.NewNodes("sagittaire", 1))
	fast, slow := platform.Nodes[0], platform.Nodes[1]
	if fast.FlopsPerCore <= slow.FlopsPerCore {
		t.Fatal("taurus is not faster than sagittaire")
	}
	ops := 100 * fast.FlopsPerCore // 100 s on the fast node
	r, err := NewRunner(Config{
		Platform:     platform,
		Policy:       sched.New(sched.Performance),
		Static:       true,
		SlotsPerNode: 1,
		Tasks:        []workload.Task{{ID: 1, Ops: ops}},
		Crashes:      map[string]float64{fast.Name: 1},
		Modules:      []Module{&RecordModule{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.rts) != 1 {
		t.Fatalf("%d runningTask slots, want the one slot recycled", len(r.rts))
	}
	if res.Completed != 1 || res.Crashed != 1 || len(res.Records) != 1 {
		t.Fatalf("completed %d, crashed %d, records %d; want one of each", res.Completed, res.Crashed, len(res.Records))
	}
	rec := res.Records[0]
	if want := 1 + slow.TaskSeconds(ops); rec.Server != slow.Name || rec.Start != 1 || rec.Finish != want {
		t.Fatalf("record %s [%v, %v], want %s [1, %v]: the cancelled finish fired", rec.Server, rec.Start, rec.Finish, slow.Name, want)
	}
	// Live events: the arrival, the crash, the resubmission and the
	// restarted finish. The stale finish is the fifth record popped.
	if r.fired != 4 {
		t.Fatalf("fired %d events, want 4: a stale record counted toward the event budget", r.fired)
	}
}

// TestEventBudgetExhausted: a run that can never settle — every node's
// candidacy is revoked, so its task retries election forever — stops
// with an error once the live events fired reach the budget.
func TestEventBudgetExhausted(t *testing.T) {
	revoke := &HookModule{InitFunc: func(r *Runner) error {
		for _, sed := range r.seds {
			sed.candidate = false
		}
		return nil
	}}
	r, err := NewRunner(Config{
		Platform: cluster.MustPlatform(cluster.NewNodes("taurus", 1)),
		Policy:   sched.New(sched.Random),
		Tasks:    []workload.Task{{ID: 1, Ops: 1e9}},
		Modules:  []Module{revoke},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run()
	if err == nil || !strings.Contains(err.Error(), "event budget") {
		t.Fatalf("run error %v, want the event budget exhausted", err)
	}
	if r.fired != r.budget() {
		t.Fatalf("stopped after %d events, want the budget of %d", r.fired, r.budget())
	}
}
