package sched

import (
	"math/rand"
	"sort"
	"testing"

	"greensched/internal/estvec"
)

func view(id int, submit, deadline, value, ops float64) TaskView {
	return TaskView{ID: id, Ops: ops, Submit: submit, Deadline: deadline, Value: value}
}

func sortViews(order TaskOrder, views []TaskView) []int {
	out := make([]TaskView, len(views))
	copy(out, views)
	sort.SliceStable(out, func(i, j int) bool { return order.Less(out[i], out[j]) })
	ids := make([]int, len(out))
	for i, v := range out {
		ids[i] = v.ID
	}
	return ids
}

func TestEDFOrder(t *testing.T) {
	order := NewOrder(EDF)
	views := []TaskView{
		view(0, 0, 0, 1, 1e9),    // best effort: last
		view(1, 10, 500, 1, 1e9), // tightest deadline: first
		view(2, 5, 900, 1, 1e9),
		view(3, 0, 0, 9, 1e9), // best effort, higher density: before 0
	}
	got := sortViews(order, views)
	want := []int{1, 2, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EDF order %v, want %v", got, want)
		}
	}
}

func TestValueDensityOrder(t *testing.T) {
	order := NewOrder(ValueDensityOrder)
	views := []TaskView{
		view(0, 0, 100, 0.5, 1e9), // 5e-10 $/flop
		view(1, 0, 0, 2, 1e9),     // 2e-9 $/flop: first
		view(2, 0, 50, 1, 1e10),   // 1e-10 $/flop: last despite deadline
	}
	got := sortViews(order, views)
	want := []int{1, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("VALUE-DENSITY order %v, want %v", got, want)
		}
	}
}

func TestFIFOOrderAndTies(t *testing.T) {
	order := NewOrder(FIFO)
	a, b := view(2, 5, 0, 0, 1), view(1, 5, 0, 0, 1)
	if !order.Less(b, a) || order.Less(a, b) {
		t.Error("FIFO submit tie must break by ID")
	}
	// EDF with equal deadlines and densities falls back to FIFO.
	edf := NewOrder(EDF)
	x, y := view(7, 1, 100, 1, 1e9), view(8, 2, 100, 1, 1e9)
	if !edf.Less(x, y) || edf.Less(y, x) {
		t.Error("EDF deadline tie must fall through to FIFO")
	}
}

// TestBundledOrdersAreStrictWeak checks the TaskOrder contract on the
// three bundled disciplines over random views built for ties: equal
// deadlines, Deadline 0 (none, ranked as +Inf), Ops 0 (value density
// 0), equal Submit and repeated IDs. Less must be irreflexive,
// asymmetric and transitive, and incomparability must be transitive.
func TestBundledOrdersAreStrictWeak(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	views := make([]TaskView, 48)
	for i := range views {
		views[i] = view(rng.Intn(8), float64(rng.Intn(3)), []float64{0, 100, 200}[rng.Intn(3)],
			float64(rng.Intn(3)), []float64{0, 1e9, 2e9}[rng.Intn(3)])
	}
	for _, kind := range []TaskOrderKind{FIFO, EDF, ValueDensityOrder} {
		less := NewOrder(kind).Less
		incomparable := func(a, b TaskView) bool { return !less(a, b) && !less(b, a) }
		for _, a := range views {
			if less(a, a) {
				t.Fatalf("%s: Less(%+v, itself)", kind, a)
			}
			for _, b := range views {
				if less(a, b) && less(b, a) {
					t.Fatalf("%s: %+v and %+v each precede the other", kind, a, b)
				}
				for _, c := range views {
					if less(a, b) && less(b, c) && !less(a, c) {
						t.Fatalf("%s: %+v < %+v < %+v but not %+v < %+v", kind, a, b, c, a, c)
					}
					if incomparable(a, b) && incomparable(b, c) && !incomparable(a, c) {
						t.Fatalf("%s: %+v ~ %+v ~ %+v but %+v and %+v are ordered", kind, a, b, c, a, c)
					}
				}
			}
		}
	}
}

func TestNewOrderPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown order kind did not panic")
		}
	}()
	NewOrder(TaskOrderKind("NOPE"))
}

// sedVec builds a learning-complete vector for DeadlineAware tests.
func sedVec(name string, flops, powerW, waitSec float64, active bool) *estvec.Vector {
	return estvec.New(name).
		Set(estvec.TagFlops, flops).
		Set(estvec.TagPowerW, powerW).
		Set(estvec.TagGreenPerf, powerW/flops).
		Set(estvec.TagWaitSec, waitSec).
		SetBool(estvec.TagActive, active)
}

func TestDeadlineAwareFeasibleFirst(t *testing.T) {
	// fast finishes in 100 s; lean is greener but queues 900 s.
	fast := sedVec("fast", 1e9, 400, 0, true)
	lean := sedVec("lean", 1e9, 100, 900, true)
	base := New(GreenPerf)

	// Without a deadline the greener server wins.
	open := DeadlineAware{Base: base, Ops: 1e11, Now: 0}
	if !open.Less(lean, fast) {
		t.Error("no deadline: base (GreenPerf) ordering expected")
	}

	// A 500 s deadline flips the order: only fast can meet it.
	tight := DeadlineAware{Base: base, Ops: 1e11, Now: 0, Deadline: 500}
	if !tight.Less(fast, lean) || tight.Less(lean, fast) {
		t.Error("deadline screen must put the feasible server first")
	}

	// A loose deadline both can meet: back to GreenPerf.
	loose := DeadlineAware{Base: base, Ops: 1e11, Now: 0, Deadline: 5000}
	if !loose.Less(lean, fast) {
		t.Error("both feasible: base ordering expected")
	}

	// Both miss: least-late first.
	hopeless := DeadlineAware{Base: base, Ops: 1e11, Now: 0, Deadline: 50}
	if !hopeless.Less(fast, lean) {
		t.Error("both miss: least-late server must rank first")
	}
}

func TestDeadlineAwareLearningPhaseRanksLast(t *testing.T) {
	known := sedVec("known", 1e9, 300, 0, true)
	novice := estvec.New("novice").SetBool(estvec.TagActive, true)
	p := DeadlineAware{Base: New(GreenPerf), Ops: 1e9, Now: 0, Deadline: 100}
	if !p.Less(known, novice) || p.Less(novice, known) {
		t.Error("servers without estimates must rank last under a deadline")
	}
}

func TestRenewablePolicy(t *testing.T) {
	p := New(Renewable)
	if p.Name() != string(Renewable) {
		t.Fatalf("name %q", p.Name())
	}
	windy := sedVec("windy", 1e9, 300, 0, true).Set(estvec.TagRenewableFrac, 0.8)
	sooty := sedVec("sooty", 1e9, 100, 0, true).Set(estvec.TagRenewableFrac, 0.1)
	unmetered := sedVec("unmetered", 1e9, 50, 0, true)

	if !p.Less(windy, sooty) || p.Less(sooty, windy) {
		t.Error("higher renewable fraction must rank first")
	}
	// Fail-safe: a server without the tag ranks after every metered
	// one, even the dirtiest.
	if !p.Less(sooty, unmetered) || p.Less(unmetered, sooty) {
		t.Error("unmetered server must rank last")
	}
	// Equal fractions fall through to GreenPerf.
	greenish := sedVec("greenish", 1e9, 100, 0, true).Set(estvec.TagRenewableFrac, 0.8)
	if !p.Less(greenish, windy) {
		t.Error("renewable tie must break by GreenPerf")
	}
}
