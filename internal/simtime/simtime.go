// Package simtime provides a deterministic virtual clock and a
// discrete-event scheduler used by the simulation experiments.
//
// All simulated experiments in this repository run on virtual time so
// that results are exactly reproducible: an event at t=2,336 s costs
// nothing to reach. The live middleware (package middleware) runs on a
// real clock of its own and does not use this package.
package simtime

import (
	"container/heap"
	"fmt"
)

// Time is a point in virtual time, expressed as seconds since the
// start of the simulation. float64 seconds keep the arithmetic in the
// same units the paper uses (seconds, watts, joules).
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// Common conversions.
func (t Time) Seconds() float64    { return float64(t) }
func (t Time) Add(d Duration) Time { return t + Time(d) }
func (t Time) String() string      { return fmt.Sprintf("t+%.1fs", float64(t)) }

// Event is a scheduled callback. Events with equal times fire in the
// order they were scheduled (FIFO), which keeps simulations
// deterministic without relying on map iteration or heap tie-breaks.
// Front events (AtFront) form a separate class that fires before all
// normal events sharing the same time, regardless of scheduling order.
type Event struct {
	At   Time
	Name string // for tracing/tests; optional
	Fn   func(now Time)

	class uint8 // 0 = front, 1 = normal
	seq   uint64
	index int // heap index; -1 once popped or cancelled
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	if h[i].class != h[j].class {
		return h[i].class < h[j].class
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulation driver. The zero value is
// ready to use. Engine is not safe for concurrent use; simulations are
// single-goroutine by design (determinism).
type Engine struct {
	now     Time
	queue   eventHeap
	nextSeq uint64
}

// NewEngine returns an engine starting at t=0.
func NewEngine() *Engine { return &Engine{} }

// At schedules fn to run at absolute time t. Scheduling in the past
// (before Now) panics: it is always a simulation bug.
func (e *Engine) At(t Time, name string, fn func(now Time)) *Event {
	if t < e.now {
		panic(fmt.Sprintf("simtime: scheduling %q at %v before now %v", name, t, e.now))
	}
	ev := &Event{At: t, Name: name, Fn: fn, class: 1, seq: e.nextSeq}
	e.nextSeq++
	heap.Push(&e.queue, ev)
	return ev
}

// AtFront schedules fn at absolute time t in the front class: among
// events sharing the same virtual time it fires before every normal
// event, no matter when either was scheduled. The sim kernel's arrival
// cursor uses it so that tasks submitted at an instant are elected
// before every runtime event at that instant (crashes, retries and
// finishes), even those scheduled long before the cursor re-armed.
// Front events scheduled for the same time keep FIFO order among
// themselves.
func (e *Engine) AtFront(t Time, name string, fn func(now Time)) *Event {
	if t < e.now {
		panic(fmt.Sprintf("simtime: scheduling %q at %v before now %v", name, t, e.now))
	}
	ev := &Event{At: t, Name: name, Fn: fn, class: 0, seq: e.nextSeq}
	e.nextSeq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d Duration, name string, fn func(now Time)) *Event {
	return e.At(e.now.Add(d), name, fn)
}

// Cancel removes a scheduled event. Cancelling a fired or already
// cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	heap.Remove(&e.queue, ev.index)
	ev.index = -1
}

// Step fires the earliest event and returns its time. It reports
// false when the queue is empty.
func (e *Engine) Step() (Time, bool) {
	if len(e.queue) == 0 {
		return e.now, false
	}
	ev := heap.Pop(&e.queue).(*Event)
	if ev.At < e.now {
		panic("simtime: heap produced an event from the past")
	}
	e.now = ev.At
	ev.Fn(e.now)
	return e.now, true
}

// Run fires events until the queue drains or the event budget is
// exhausted. A zero or negative budget means "no budget limit". It
// returns the number of events fired by this call and an error if the
// budget was hit (a runaway-simulation guard, not a normal outcome).
func (e *Engine) Run(budget uint64) (fired uint64, err error) {
	for _, ok := e.Step(); ok; _, ok = e.Step() {
		fired++
		if budget > 0 && fired >= budget {
			if len(e.queue) > 0 {
				return fired, fmt.Errorf("simtime: event budget %d exhausted at %v with %d events pending", budget, e.now, len(e.queue))
			}
			return fired, nil
		}
	}
	return fired, nil
}
