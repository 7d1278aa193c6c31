// Package workload models the paper's client workloads: independent
// CPU-bound tasks submitted in a burst phase followed by a continuous
// phase at a fixed rate (§IV-A), plus Poisson arrivals; the §IV-C
// closed-loop client is a sim.Feeder in package experiments.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"greensched/internal/core"
)

// Task is one client request: a single-core CPU-bound problem of Ops
// flops. The paper's reference task is "1e8 successive additions"; Ops
// carries the calibrated flop count (see DESIGN.md §3).
type Task struct {
	ID     int
	Ops    float64
	Submit float64 // arrival time, seconds
	// Pref is the Preference_user attached to the request. Generators
	// set it and traces carry it, but no election reads it:
	// sched.ScorePolicy and budget.Policy take Eq. 6's P from their own
	// configuration, so it is not a live Eq. 3 input.
	Pref core.UserPref

	// Deadline is the absolute completion deadline in seconds (same
	// timeline as Submit); 0 means best-effort. Package sla resolves
	// it against the task's class defaults.
	Deadline float64
	// Value is the dollars an on-time completion earns (0 = use the
	// class default, or worthless best-effort work).
	Value float64
	// Class names the task's SLA class ("" = best-effort); see
	// sla.Catalog.
	Class string
}

// Validate reports a descriptive error for malformed tasks.
func (t Task) Validate() error {
	switch {
	case !finite(t.Ops) || !finite(t.Submit) || !finite(t.Deadline) || !finite(t.Value) || !finite(float64(t.Pref)):
		return fmt.Errorf("workload: task %d has a non-finite field", t.ID)
	case t.Ops <= 0:
		return fmt.Errorf("workload: task %d has non-positive ops", t.ID)
	case t.Submit < 0:
		return fmt.Errorf("workload: task %d submitted at negative time", t.ID)
	case t.Deadline < 0:
		return fmt.Errorf("workload: task %d has negative deadline", t.ID)
	case t.Deadline > 0 && t.Deadline <= t.Submit:
		return fmt.Errorf("workload: task %d deadline %g not after submit %g", t.ID, t.Deadline, t.Submit)
	case t.Value < 0:
		return fmt.Errorf("workload: task %d has negative value", t.ID)
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// BurstThenRate is the §IV-A temporal distribution: "a burst phase,
// when the client submits r simultaneous requests and a continuous
// phase when the client submits requests at an arbitrary rate".
type BurstThenRate struct {
	Total int     // total number of requests
	Burst int     // r: simultaneous requests at t=0
	Rate  float64 // continuous-phase arrivals per second
	Ops   float64 // flops per task

	// SLA annotations applied to every generated task: a class name
	// and a deadline RelDeadline seconds after each task's submission
	// (0 = none).
	Class       string
	RelDeadline float64
}

// Validate reports configuration errors.
func (g BurstThenRate) Validate() error {
	switch {
	case g.Total <= 0:
		return fmt.Errorf("workload: total %d must be positive", g.Total)
	case g.Burst < 0 || g.Burst > g.Total:
		return fmt.Errorf("workload: burst %d outside [0,%d]", g.Burst, g.Total)
	case g.Rate <= 0 && g.Burst < g.Total:
		return fmt.Errorf("workload: continuous phase needs a positive rate")
	case g.Ops <= 0:
		return fmt.Errorf("workload: ops must be positive")
	default:
		return nil
	}
}

// Tasks materializes the arrival schedule. Burst tasks arrive at t=0;
// the remaining Total−Burst tasks arrive every 1/Rate seconds starting
// at 1/Rate.
func (g BurstThenRate) Tasks() ([]Task, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	out := make([]Task, 0, g.Total)
	for i := 0; i < g.Burst; i++ {
		out = append(out, g.task(i, 0))
	}
	period := 0.0
	if g.Rate > 0 {
		period = 1 / g.Rate
	}
	for i := g.Burst; i < g.Total; i++ {
		at := float64(i-g.Burst+1) * period
		out = append(out, g.task(i, at))
	}
	return out, nil
}

func (g BurstThenRate) task(id int, at float64) Task {
	t := Task{ID: id, Ops: g.Ops, Submit: at, Class: g.Class}
	if g.RelDeadline > 0 {
		t.Deadline = at + g.RelDeadline
	}
	return t
}

// Poisson generates Total tasks with exponential inter-arrival times
// of mean 1/Rate — the memoryless open-loop load used by robustness
// tests and ablations.
type Poisson struct {
	Total int
	Rate  float64
	Ops   float64
	Seed  int64
}

// Tasks materializes the schedule.
func (g Poisson) Tasks() ([]Task, error) {
	if g.Total <= 0 || g.Rate <= 0 || g.Ops <= 0 {
		return nil, fmt.Errorf("workload: poisson needs positive total, rate and ops")
	}
	rng := rand.New(rand.NewSource(g.Seed))
	out := make([]Task, g.Total)
	at := 0.0
	for i := range out {
		at += rng.ExpFloat64() / g.Rate
		out[i] = Task{ID: i, Ops: g.Ops, Submit: at}
	}
	return out, nil
}

// Merge interleaves several task schedules (e.g. the two clients of
// §IV-B) into one stream sorted by submit time, re-numbering IDs so
// they stay unique. Ties keep schedule order (client 1 before
// client 2), which keeps multi-client runs deterministic.
func Merge(schedules ...[]Task) []Task {
	var out []Task
	for _, s := range schedules {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Submit < out[j].Submit })
	for i := range out {
		out[i].ID = i
	}
	return out
}

// PerCore returns the paper's request-count rule: "a number of 10
// client requests per available core" (reqsPerCore=10).
func PerCore(totalCores, reqsPerCore int) int { return totalCores * reqsPerCore }

// Shift returns a copy of tasks with every submit time moved by
// `by` seconds (IDs unchanged). Composing Shift with Merge builds
// multi-phase schedules — e.g. the burst / idle-gap / burst pattern of
// under-utilized platforms (§II-B: "Cloud computing infrastructures
// are seldom fully utilized").
func Shift(tasks []Task, by float64) []Task {
	out := make([]Task, len(tasks))
	for i, t := range tasks {
		t.Submit += by
		if t.Deadline > 0 {
			t.Deadline += by // deadlines ride the same timeline
		}
		out[i] = t
	}
	return out
}
