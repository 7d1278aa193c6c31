package sched

import (
	"fmt"
	"math"

	"greensched/internal/estvec"
)

// This file holds the SLA-aware scheduling surfaces: task-queue
// disciplines (which accepted task runs next) and server policies
// that price deadline risk next to watts. Package sla supplies the
// value/penalty semantics; these orderings only consume the numbers.

// TaskView is the slice of a task a queue discipline may rank on.
// Deadline is absolute (same timeline as Submit); 0 means none.
type TaskView struct {
	ID       int
	Ops      float64
	Submit   float64
	Deadline float64
	Value    float64
}

// ValueDensity returns the task's dollars per flop — the classic
// value-density heuristic from revenue-aware scheduling. Zero-ops
// tasks are invalid upstream; guard anyway.
func (t TaskView) ValueDensity() float64 {
	if t.Ops <= 0 {
		return 0
	}
	return t.Value / t.Ops
}

// TaskOrder ranks queued tasks: Less reports whether a should run
// strictly before b. Less must be a strict weak order — irreflexive,
// asymmetric and transitive, with incomparability (neither a before b
// nor b before a) transitive too — and pure, so SED queues stay
// deterministic. A SED serves the tasks Less leaves incomparable in
// queue (insertion) order.
type TaskOrder interface {
	// Less reports whether a runs strictly before b.
	Less(a, b TaskView) bool
}

// TaskOrderKind selects one of the bundled queue disciplines.
type TaskOrderKind string

// Bundled queue disciplines.
const (
	// FIFO runs tasks in submission order — the paper's implicit
	// discipline, kept as the baseline.
	FIFO TaskOrderKind = "FIFO"
	// EDF runs the earliest absolute deadline first; deadline-free
	// tasks run last. The classic optimality result (Liu & Layland)
	// holds per server under preemption; here it minimizes misses
	// among queued work without migration.
	EDF TaskOrderKind = "EDF"
	// ValueDensityOrder runs the highest dollars-per-flop first, so a
	// backlog burns its cycles on the most valuable work; ties break
	// toward earlier deadlines.
	ValueDensityOrder TaskOrderKind = "VALUE-DENSITY"
)

// NewOrder returns the bundled discipline for a kind. It panics on
// unknown kinds (configuration error).
func NewOrder(k TaskOrderKind) TaskOrder {
	switch k {
	case FIFO:
		return fifoOrder{}
	case EDF:
		return edfOrder{}
	case ValueDensityOrder:
		return valueDensityOrder{}
	default:
		panic(fmt.Sprintf("sched: unknown task order kind %q", k))
	}
}

type fifoOrder struct{}

func (fifoOrder) Less(a, b TaskView) bool {
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
}

type edfOrder struct{}

func (edfOrder) Less(a, b TaskView) bool {
	da, db := deadlineOrInf(a), deadlineOrInf(b)
	if da != db {
		return da < db
	}
	// Equal (or both absent) deadlines: highest value density, then
	// FIFO.
	if va, vb := a.ValueDensity(), b.ValueDensity(); va != vb {
		return va > vb
	}
	return fifoOrder{}.Less(a, b)
}

type valueDensityOrder struct{}

func (valueDensityOrder) Less(a, b TaskView) bool {
	if va, vb := a.ValueDensity(), b.ValueDensity(); va != vb {
		return va > vb
	}
	da, db := deadlineOrInf(a), deadlineOrInf(b)
	if da != db {
		return da < db
	}
	return fifoOrder{}.Less(a, b)
}

func deadlineOrInf(t TaskView) float64 {
	if t.Deadline <= 0 {
		return math.Inf(1)
	}
	return t.Deadline
}

// DeadlineAware wraps a server policy with a hard deadline screen for
// one arriving task: servers whose estimated completion meets the
// deadline rank first (in Base order — typically an energy ordering,
// so the scheduler stays green *among the feasible*), servers that
// would miss rank after them by completion time ascending (least-late
// first), and servers still in the learning phase rank last. With no
// deadline the ordering is exactly Base.
type DeadlineAware struct {
	Base Policy
	// Ops is the arriving task's size; Now the decision time; Deadline
	// the absolute deadline (0 = none).
	Ops      float64
	Now      float64
	Deadline float64
}

// Name implements Policy.
func (p DeadlineAware) Name() string { return fmt.Sprintf("DEADLINE(%s)", p.Base.Name()) }

// Less implements Policy.
func (p DeadlineAware) Less(a, b *estvec.Vector) bool {
	if p.Deadline <= 0 {
		return p.Base.Less(a, b)
	}
	ca, aok := completionEstimate(a, p.Ops)
	cb, bok := completionEstimate(b, p.Ops)
	switch {
	case aok && !bok:
		return true
	case !aok && bok:
		return false
	case !aok && !bok:
		return p.Base.Less(a, b)
	}
	left := p.Deadline - p.Now
	ma, mb := ca <= left, cb <= left
	switch {
	case ma && !mb:
		return true
	case !ma && mb:
		return false
	case ma && mb:
		return p.Base.Less(a, b)
	default:
		// Both miss: least-late first so the curve forfeits the least.
		if ca != cb {
			return ca < cb
		}
		return p.Base.Less(a, b)
	}
}

// completionEstimate reconstructs Eq. 4's completion time from an
// estimation vector; ok is false while the server's estimator is
// still learning.
func completionEstimate(v *estvec.Vector, ops float64) (float64, bool) {
	srv, ok := ServerFromVector(v)
	if !ok {
		return 0, false
	}
	return srv.ComputationTime(ops), true
}
