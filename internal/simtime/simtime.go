// Package simtime is the deterministic event queue under the
// simulation experiments: a slice-backed binary min-heap of value
// events on virtual time. An event is a time, a class, a scheduling
// sequence number and a caller-defined payload the caller dispatches
// on, so scheduling one allocates nothing once the heap has grown.
// The live middleware runs on a real clock and does not use it.
package simtime

import "fmt"

// Time is a point in virtual time, expressed as seconds since the
// start of the simulation.
type Time float64

func (t Time) String() string { return fmt.Sprintf("t+%.1fs", float64(t)) }

// Queue is a min-heap of events carrying payloads of type T. Events
// pop in (time, class, seq) order: earlier time first; at equal times
// the front class (PushFront) before normal events (Push), however
// early those were scheduled; within a class, in scheduling order
// (FIFO). The zero value is ready to use. Queue is not safe for
// concurrent use; simulations are single-goroutine by design.
type Queue[T any] struct {
	recs []record[T]
	seq  uint64
	now  float64
}

// record is one scheduled event. key packs the class (top bit, 0 =
// front) above the sequence number: one comparison orders both.
type record[T any] struct {
	at  float64
	key uint64
	val T
}

const normalClass = 1 << 63

func (a *record[T]) before(b *record[T]) bool {
	return a.at < b.at || a.at == b.at && a.key < b.key
}

// Push schedules v at virtual time at (seconds) in the normal class.
// Scheduling before Now panics: it is always a simulation bug.
func (q *Queue[T]) Push(at float64, v T) { q.push(at, normalClass, v) }

// PushFront schedules v at time at in the front class, which pops
// before every normal event at that time (the sim's arrival cursor).
func (q *Queue[T]) PushFront(at float64, v T) { q.push(at, 0, v) }

func (q *Queue[T]) push(at float64, class uint64, v T) {
	if at < q.now {
		panic(fmt.Sprintf("simtime: scheduling at %v before now %v", Time(at), Time(q.now)))
	}
	q.recs = append(q.recs, record[T]{at: at, key: class | q.seq, val: v})
	q.seq++
	q.up(len(q.recs) - 1)
}

// Len returns the number of scheduled events.
func (q *Queue[T]) Len() int { return len(q.recs) }

// Now returns the time of the last popped event (0 before the first).
func (q *Queue[T]) Now() float64 { return q.now }

// Peek returns the earliest event's payload; the queue must not be empty.
func (q *Queue[T]) Peek() T { return q.recs[0].val }

// Pop removes the earliest event, advances Now to its time and returns
// both. The queue must not be empty.
func (q *Queue[T]) Pop() (float64, T) {
	top := q.recs[0]
	last := len(q.recs) - 1
	// Floyd's deletion: walk the root's hole down to a leaf, promoting
	// the earlier child, then settle the last record into it from below.
	i := 0
	for c := 1; c < last; c = 2*i + 1 {
		if c+1 < last && q.recs[c+1].before(&q.recs[c]) {
			c++
		}
		q.recs[i] = q.recs[c]
		i = c
	}
	q.recs[i] = q.recs[last]
	q.up(i)
	q.recs[last] = record[T]{} // drop the payload's references
	q.recs = q.recs[:last]
	q.now = top.at
	return top.at, top.val
}

func (q *Queue[T]) up(i int) {
	for p := (i - 1) / 2; i > 0 && q.recs[i].before(&q.recs[p]); i, p = p, (p-1)/2 {
		q.recs[i], q.recs[p] = q.recs[p], q.recs[i]
	}
}

// Engine fires callbacks scheduled on a Queue: the adapter through
// which the benchmark's simtime.event_ns probe times the kernel's heap.
type Engine struct{ q Queue[func(Time)] }

// NewEngine returns an engine starting at t=0.
func NewEngine() *Engine { return &Engine{} }

// At schedules fn to run at time t; the name is unused.
func (e *Engine) At(t Time, _ string, fn func(now Time)) { e.q.Push(float64(t), fn) }

// Step fires the earliest event and returns its time. It reports
// false when the queue is empty.
func (e *Engine) Step() (Time, bool) {
	if e.q.Len() == 0 {
		return Time(e.q.Now()), false
	}
	at, fn := e.q.Pop()
	fn(Time(at))
	return Time(at), true
}
