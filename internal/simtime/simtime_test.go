package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.now != 0 {
		t.Fatalf("new engine now = %v, want 0", e.now)
	}
	if len(e.queue) != 0 {
		t.Fatalf("new engine has %d pending events, want 0", len(e.queue))
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	record := func(now Time) { got = append(got, now) }
	e.At(5, "c", record)
	e.At(1, "a", record)
	e.At(3, "b", record)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []Time{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
	if e.now != 5 {
		t.Errorf("now after run = %v, want 5", e.now)
	}
}

func TestEqualTimesFireFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, "tie", func(Time) { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order = %v, want ascending schedule order", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(10, "first", func(now Time) {
		e.After(5, "second", func(now Time) { at = now })
	})
	e.Run(0)
	if at != 15 {
		t.Fatalf("relative event fired at %v, want 15", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, "x", func(Time) {})
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, "past", func(Time) {})
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(3, "x", func(Time) { fired = true })
	e.Cancel(ev)
	e.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.index != -1 {
		t.Fatalf("cancelled event keeps heap index %d", ev.index)
	}
	// Double-cancel and cancel-nil must be no-ops.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []string
	a := e.At(1, "a", func(Time) { got = append(got, "a") })
	e.At(2, "b", func(Time) { got = append(got, "b") })
	c := e.At(3, "c", func(Time) { got = append(got, "c") })
	e.Cancel(a)
	e.Cancel(c)
	e.Run(0)
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("got %v, want [b]", got)
	}
}

func TestRunBudget(t *testing.T) {
	e := NewEngine()
	// A self-perpetuating event chain that never terminates.
	var loop func(now Time)
	loop = func(now Time) { e.After(1, "loop", loop) }
	e.After(1, "loop", loop)
	fired, err := e.Run(100)
	if err == nil {
		t.Fatal("expected budget-exhausted error")
	}
	if fired != 100 {
		t.Fatalf("fired = %d, want 100", fired)
	}
}

func TestTimeHelpers(t *testing.T) {
	if got := Time(5).Add(2.5); got != 7.5 {
		t.Fatalf("Add = %v, want 7.5", got)
	}
	if s := Time(1.25).String(); s != "t+1.2s" {
		t.Fatalf("String() = %q", s)
	}
}

// Property: for any random set of event times, the engine fires them in
// non-decreasing time order and ends with its clock at the max.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			e.At(at, "p", func(now Time) { fired = append(fired, now) })
		}
		e.Run(0)
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		max := fired[len(fired)-1]
		return e.now == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset never affects the relative order
// of survivors.
func TestPropertyCancelSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		n := 50
		type rec struct {
			ev   *Event
			at   Time
			keep bool
		}
		recs := make([]*rec, n)
		var fired []Time
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(100))
			r := &rec{at: at, keep: rng.Intn(2) == 0}
			r.ev = e.At(at, "p", func(now Time) { fired = append(fired, now) })
			recs[i] = r
		}
		want := 0
		for _, r := range recs {
			if !r.keep {
				e.Cancel(r.ev)
			} else {
				want++
			}
		}
		e.Run(0)
		if len(fired) != want {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(fired), want)
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			t.Fatalf("trial %d: fired out of order: %v", trial, fired)
		}
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.At(Time(j%97), "b", func(Time) {})
		}
		e.Run(0)
	}
}

func TestAtFrontFiresBeforeNormalEventsAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []string
	// Normal events scheduled first (lower seq) would normally win the
	// tie; the front event must still fire ahead of them.
	e.At(5, "normal-early", func(Time) { order = append(order, "normal-early") })
	e.At(5, "normal-late", func(Time) { order = append(order, "normal-late") })
	e.AtFront(5, "front-b", func(Time) { order = append(order, "front-b") })
	e.AtFront(5, "front-a", func(Time) { order = append(order, "front-a") })
	e.At(3, "before", func(Time) { order = append(order, "before") })
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"before", "front-b", "front-a", "normal-early", "normal-late"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestAtFrontPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, "x", func(Time) {})
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling a front event in the past")
		}
	}()
	e.AtFront(5, "late", func(Time) {})
}
