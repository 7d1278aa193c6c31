package simtime

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// drain pops every event and returns the payloads in pop order.
func drain[T any](q *Queue[T]) []T {
	var out []T
	for q.Len() > 0 {
		_, v := q.Pop()
		out = append(out, v)
	}
	return out
}

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if now, ok := e.Step(); ok || now != 0 {
		t.Fatalf("empty engine stepped to %v (fired %v), want t=0 and nothing fired", now, ok)
	}
	var got Time
	e.At(4, "x", func(now Time) { got = now })
	if now, ok := e.Step(); !ok || now != 4 || got != 4 {
		t.Fatalf("step = (%v, %v), callback saw %v; want the event at 4", now, ok, got)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	var q Queue[string]
	q.Push(5, "c")
	q.Push(1, "a")
	q.Push(3, "b")
	var got []float64
	for q.Len() > 0 {
		at, _ := q.Pop()
		got = append(got, at)
		if q.Now() != at {
			t.Fatalf("Now = %v after popping the event at %v", q.Now(), at)
		}
	}
	want := []float64{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d popped at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEqualTimesFireFIFO(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(7, i)
	}
	for i, v := range drain(&q) {
		if v != i {
			t.Fatalf("tie %d popped payload %d, want ascending schedule order", i, v)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var q Queue[int]
	q.Push(10, 0)
	q.Pop()
	q.Push(10, 1) // at now: allowed
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "t+5.0s before now t+10.0s") {
			t.Fatalf("scheduling in the past: recovered %q, want a panic naming both times", msg)
		}
	}()
	q.Push(5, 2)
}

func TestTimeHelpers(t *testing.T) {
	if s := Time(1.25).String(); s != "t+1.2s" {
		t.Fatalf("String() = %q", s)
	}
}

// Property: for any random set of event times, the queue pops them in
// non-decreasing time order and ends with its clock at the max.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var q Queue[int]
		for i, r := range raw {
			q.Push(float64(r), i)
		}
		var popped []float64
		for q.Len() > 0 {
			at, _ := q.Pop()
			popped = append(popped, at)
		}
		if len(popped) != len(raw) || !sort.Float64sAreSorted(popped) {
			return false
		}
		return q.Now() == popped[len(popped)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: on any interleaving of pushes (front or normal, at or
// after now) and pops, the queue pops exactly what a stable sort by
// (time, class) of the scheduled events would: ties keep scheduling
// order.
func TestPropertyPopOrderMatchesStableSort(t *testing.T) {
	type ev struct {
		at    float64
		front bool
		seq   int
	}
	f := func(ops []uint16) bool {
		var q Queue[ev]
		var pending []ev
		seq := 0
		for _, op := range ops {
			if op%4 == 0 && q.Len() > 0 {
				_, got := q.Pop()
				sort.SliceStable(pending, func(i, j int) bool {
					a, b := pending[i], pending[j]
					if a.at != b.at {
						return a.at < b.at
					}
					return a.front && !b.front
				})
				if got != pending[0] {
					return false
				}
				pending = pending[1:]
				continue
			}
			e := ev{at: q.Now() + float64(op%8), front: op%3 == 0, seq: seq}
			seq++
			if e.front {
				q.PushFront(e.at, e)
			} else {
				q.Push(e.at, e)
			}
			pending = append(pending, e)
		}
		return q.Len() == len(pending)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQueuePushPop(b *testing.B) {
	var q Queue[int]
	for j := 0; j < 128; j++ {
		q.Push(float64(j), j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(q.Now()+128, i)
		q.Pop()
	}
}

func TestAtFrontFiresBeforeNormalEventsAtSameTime(t *testing.T) {
	var q Queue[string]
	// Normal events scheduled first (lower seq) would normally win the
	// tie; the front events must still pop ahead of them.
	q.Push(5, "normal-early")
	q.Push(5, "normal-late")
	q.PushFront(5, "front-b")
	q.PushFront(5, "front-a")
	q.Push(3, "before")
	got := drain(&q)
	want := []string{"before", "front-b", "front-a", "normal-early", "normal-late"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("popped %v, want %v", got, want)
	}
}

func TestAtFrontPastPanics(t *testing.T) {
	var q Queue[int]
	q.Push(10, 0)
	q.Pop()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling a front event in the past")
		}
	}()
	q.PushFront(5, 1)
}

// TestQueueZeroAlloc: once the heap has grown, a push and a pop
// allocate nothing.
func TestQueueZeroAlloc(t *testing.T) {
	var q Queue[[3]int32]
	for j := 0; j < 64; j++ {
		q.Push(float64(j), [3]int32{})
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		q.Push(q.Now()+64, [3]int32{1, 2, 3})
		q.Pop()
	}); allocs != 0 {
		t.Fatalf("push+pop allocated %.1f times, want 0", allocs)
	}
}
