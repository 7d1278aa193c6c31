// Package sim is the deterministic discrete-event simulator that
// executes the paper's experiments: it drives a cluster.Platform
// through the DIET scheduling loop (estimation vectors → plug-in
// policy sort → SED election → execution) on virtual time, with exact
// piecewise-constant energy accounting and the dynamic learning of
// power/performance estimates described in §III-A.
//
// The simulator replaces the GRID'5000 testbed, not the scheduler: the
// policy, selection and estimation code paths are the same ones the
// live middleware (package middleware) uses.
//
// Cross-cutting concerns — carbon accounting, SLA machinery,
// preemption, power-management controllers, budget tracking — attach
// to a run as a stack of Module values
// (Config.Modules, or NewScenario with functional options); see
// module.go.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"greensched/internal/carbon"
	"greensched/internal/cluster"
	"greensched/internal/estvec"
	"greensched/internal/obs"
	"greensched/internal/power"
	"greensched/internal/sched"
	"greensched/internal/simtime"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// Config parameterizes one simulation run.
type Config struct {
	Platform *cluster.Platform
	Policy   sched.Policy
	// Tasks is the trace. The kernel reads it in place for the whole
	// run, in (Submit, slice) order, and never writes it: a run holds
	// one index per task, not a copy, so the caller must not modify the
	// slice until Run returns.
	Tasks []workload.Task

	// QueueFactor bounds per-SED backlog (see sched.Selector); 0
	// means the default 1.0.
	QueueFactor float64
	// RankAll elects purely on policy order across free and
	// queued-under-cap servers (see sched.Selector.RankAll); used
	// with score-based policies whose ordering prices waiting.
	RankAll bool
	// Explore enables the learning phase (ignored — always off — for
	// the RANDOM policy, which needs no estimates).
	Explore bool
	// EstimatorWindow is the moving-average window in requests; 0
	// means the default 64.
	EstimatorWindow int
	// SlotsPerNode caps concurrent tasks per node below its core
	// count; §IV-B limits "each server ... to the computation of one
	// task". 0 means one slot per core.
	SlotsPerNode int

	// Static seeds every estimator from a noiseless initial benchmark
	// instead of learning dynamically (the paper's first, static
	// approach; kept for the ablation bench).
	Static bool

	// Seed drives every stochastic element (RANDOM draws, jitter,
	// meter faults).
	Seed int64
	// MeterNoiseW configures wattmeter noise injection.
	MeterNoiseW float64
	// ExecJitter adds a relative uniform ±jitter to task execution
	// times (hardware variance).
	ExecJitter float64
	// Contention slows a task down by Contention×(co-runners/cores)
	// — memory-subsystem interference on loaded nodes. It makes the
	// dynamic estimator's flops readings load-dependent, which is
	// what spreads same-cluster rankings in practice (Figs. 2–3 show
	// the whole preferred cluster used, not a single node).
	Contention float64

	// Crashes maps node names to crash times; running tasks are lost
	// and resubmitted by the client.
	Crashes map[string]float64

	// Modules is the run's extension stack: every cross-cutting
	// concern (carbon accounting, SLA machinery, preemption,
	// power-management controllers, budget tracking) attaches as one
	// Module, and any number of them compose in one run. Hooks run in
	// stack order; see Module.
	Modules []Module

	// ControlEvery is the tick cadence of every module's OnTick, in
	// virtual seconds; 0 disables ticks.
	ControlEvery float64

	// RetryEvery is the client back-off between election attempts for
	// a request no server can accept (all candidacies revoked or
	// everything powered off); 0 means the default 1 second.
	// Controllers that defer work for hours (carbon windows) should
	// raise it so the retry traffic stays proportionate.
	RetryEvery float64
}

func (c *Config) defaults() error {
	if c.Platform == nil || len(c.Platform.Nodes) == 0 {
		return fmt.Errorf("sim: config needs a platform")
	}
	if c.Policy == nil {
		return fmt.Errorf("sim: config needs a policy")
	}
	if c.QueueFactor <= 0 {
		c.QueueFactor = 1.0
	}
	if c.EstimatorWindow <= 0 {
		c.EstimatorWindow = 64
	}
	if c.RetryEvery <= 0 {
		c.RetryEvery = 1.0
	}
	return nil
}

// TaskRecord is the fate of one task.
type TaskRecord struct {
	ID      int
	Server  string
	Cluster string
	Submit  float64
	Start   float64
	Finish  float64
	// MeanPowerW is the wattmeter-measured mean node draw over the
	// task's execution (what the dynamic estimator consumed).
	MeanPowerW float64
	// Resubmits counts crash-induced re-executions.
	Resubmits int
	// Preemptions counts how many times the task was checkpointed and
	// displaced before this completion; Start and Exec() then describe
	// the final execution segment only, while EnergyShareJ and CO2Grams
	// still cover every segment.
	Preemptions int

	// Deadline is the task's effective absolute deadline (class
	// defaults resolved; 0 = none) and Class its SLA class.
	Deadline float64
	Class    string
	// EarnedUSD is the value credited through the penalty curve
	// (negative = contractual penalty); zero without an SLAModule.
	EarnedUSD float64
	// EnergyShareJ is the task's share of its node's measured energy
	// over the execution window: mean node draw × duration ÷ mean
	// co-running task count, so concurrent tasks split the node's
	// joules instead of each being charged all of them.
	EnergyShareJ float64
	// CO2Grams integrates EnergyShareJ through the site's intensity
	// signal over the execution window; zero without a CarbonModule.
	CO2Grams float64
}

// Wait returns queueing delay (start − submit).
func (r TaskRecord) Wait() float64 { return r.Start - r.Submit }

// Exec returns execution time (finish − start).
func (r TaskRecord) Exec() float64 { return r.Finish - r.Start }

// Rejection is one admission-control refusal: the task never ran and
// its full value was forfeited.
type Rejection struct {
	ID       int
	Class    string
	ValueUSD float64
	At       float64 // submission (decision) time
}

// Result aggregates one run.
type Result struct {
	Policy   string
	Makespan float64      // completion time of the last task
	EnergyJ  power.Joules // whole-platform energy over [0, makespan]

	PerNodeTasks     map[string]int
	PerNodeEnergyJ   map[string]power.Joules
	PerClusterTasks  map[string]int
	PerClusterEnergy map[string]power.Joules

	// CO2Grams is the whole-platform emissions over the run, with
	// per-node and per-cluster breakdowns. All zero unless a
	// CarbonModule is stacked.
	CO2Grams      float64
	PerNodeCO2G   map[string]float64
	PerClusterCO2 map[string]float64

	// Records lists every completed task in completion order. The
	// kernel does not keep them: it stays nil unless a RecordModule is
	// stacked.
	Records []TaskRecord

	Completed int
	Crashed   int // running task executions lost to crashes (each resubmitted)

	// Preemptions counts checkpoint/displace events (arrival-path and
	// Control.Preempt alike); PreemptRedoneOps sums the completed work
	// the restart penalty forced victims to re-execute.
	Preemptions      int
	PreemptRedoneOps float64

	// Boots and Shutdowns count controller-issued power transitions
	// (zero unless a module drives Control.PowerOn/PowerOff).
	Boots     int
	Shutdowns int

	// DeadlineMisses counts completions past their effective deadline;
	// Rejected counts admission refusals (each listed in Rejections).
	DeadlineMisses int
	Rejected       int
	Rejections     []Rejection

	// SLA is the revenue/penalty ledger summary; nil without an
	// SLAModule.
	SLA *sla.Summary

	// waitSum adds up every completion's queueing delay in completion
	// order, so MeanWait needs no records.
	waitSum float64
}

// JoulesPerTask returns whole-platform energy per completed task.
func (r *Result) JoulesPerTask() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.EnergyJ) / float64(r.Completed)
}

// GramsPerTask returns whole-platform CO2 per completed task — the
// per-request carbon attribution next to JoulesPerTask.
func (r *Result) GramsPerTask() float64 {
	if r.Completed == 0 {
		return 0
	}
	return r.CO2Grams / float64(r.Completed)
}

// MeanWait returns the average queueing delay across completed tasks.
func (r *Result) MeanWait() float64 {
	if r.Completed == 0 {
		return 0
	}
	return r.waitSum / float64(r.Completed)
}

// sedState is one SED: a node plus its queue, estimator and meter.
//
// The backlog has two orders. queue holds it in insertion order — the
// order the wait-estimate drain, crash migration and controller views
// walk, whatever the discipline. Under a queue discipline (order
// non-nil: EDF, VALUE-DENSITY, ...) disc additionally orders it for the
// dequeue: a freed slot serves disc's top, and the queue keeps its
// insertion order around the gap.
type sedState struct {
	idx   int
	node  *cluster.Node
	est   *power.Estimator
	meter *power.Wattmeter

	slots int
	// queue[qhead:] is the backlog arena: FIFO dequeues advance qhead
	// in O(1) instead of memmoving the whole slice, and the backing
	// array is recycled once drained — the pending-task arena. A
	// removal behind the head (a discipline serving out of insertion
	// order) leaves a tombstone (pendingTask.removed) that every walk
	// skips; dead counts them, and compact squeezes them and the dead
	// prefix out once they make up half the arena.
	queue   []pendingTask
	qhead   int
	dead    int
	running []*runningTask // in no particular order

	// Drained-heap cache. avail is the slot-availability min-heap left
	// after draining the whole backlog, in insertion order, over the
	// running tasks' finish times, so avail[0] is when a slot first
	// frees for new work. It is exact while availVer == mutVer+1 (the
	// +1 keeps the zero value invalid); mutVer advances on every
	// queue/running mutation (bumpWait). It is only ever kept for a
	// full SED (every slot running), whose availability times are
	// absolute finish times. Two mutations keep it exact instead of
	// invalidating it, because each repeats, on the same multiset, the
	// very addition a fresh drain would make:
	//   - pushQueue: the drain walks the backlog in order, so the new
	//     tail is one more drain step on the kept heap;
	//   - a finish whose refill starts the insertion-order head in the
	//     freed slot with planned exec TaskSeconds (no contention or
	//     exec jitter; Runner.onFinish): the drain's first step gave
	//     exactly that slot — the earliest finish — to the head, at
	//     exactly now + exec. Under FIFO every refill serves the head;
	//     under a queue discipline (EDF, VALUE-DENSITY, ...) only the
	//     refills whose heap top is the oldest live task do.
	// Everything else — a discipline serving a task behind the head (a
	// non-head removal), preemption, crash, clearQueue, a start under
	// contention or jitter, a module hook touching the SED mid-finish,
	// any start into a non-full SED — invalidates, and the next probe
	// re-drains. A padded drain (free slots on a booting/off node)
	// depends on now and is never kept. drains counts full re-drains.
	avail    []float64
	availVer uint64
	mutVer   uint64
	drains   int

	// order is the queue discipline (nil = FIFO, and disc stays empty).
	// disc is its binary min-heap over the live backlog, one entry per
	// queued task, keyed by order.Less on the view taken at enqueue and
	// then by arena slot — insertion order, so incomparable tasks are
	// served first-come first-served. A task's terms are resolved once,
	// on first arrival, so the view cannot go stale while it waits; a
	// preempted remainder re-enters with a fresh view. renum is
	// compact's slot-renumbering scratch.
	order sched.TaskOrder
	disc  []queueKey
	renum []int

	// static holds the benchmark calibration when Config.Static is
	// set; estimates then never change at runtime.
	static *cluster.Calibration

	// site and co2 carry the node's grid signal and emissions
	// integrator when a CarbonModule is stacked.
	site *carbon.SiteProfile
	co2  *carbon.Integrator

	// candidate marks the SED as eligible for new work (controllers
	// toggle it through Control; the placement experiments keep all
	// SEDs candidates).
	candidate bool

	// failed marks a crashed node: it stays unusable (and excluded from
	// best-case feasibility bounds) until a controller repairs it via
	// PowerOn.
	failed bool

	// idleAt is the virtual time the node last became workless; the
	// controller hook reads it to apply idle timeouts. Meaningful only
	// while running and queue are empty.
	idleAt float64

	// busyAt / busyIntegral track busy-core-seconds exactly (advanced
	// on every task start and finish); per-task energy attribution
	// divides the node's measured draw by the mean concurrency over
	// each task's window.
	busyAt       float64
	busyIntegral float64
}

// nextRelease returns how long after now the SED's first running task
// finishes: never negative, +Inf with nothing running.
func (s *sedState) nextRelease(now float64) float64 {
	wait := math.Inf(1)
	for _, rt := range s.running {
		if w := rt.finishAt - now; w < wait {
			wait = w
		}
	}
	if wait < 0 {
		return 0
	}
	return wait
}

// forgetMeter drops the meter samples no window can read any more. The
// meter is read only over a running task's window, at its finish or
// preemption, and every such window starts at or after the oldest
// running task's start, or at now for a task not yet started.
func (s *sedState) forgetMeter(now float64) {
	before := now
	for _, rt := range s.running {
		if rt.start < before {
			before = rt.start
		}
	}
	s.meter.Forget(before)
}

// settled feeds one settled interval of the node's draw to the meter
// and, under a CarbonModule, to the emissions integrator. The node
// settles before it changes state, so its busy cores are those of the
// interval. An interval with none is skipped, not recorded: every
// window the meter serves lies inside a running task's execution.
func (s *sedState) settled(from, to float64, w power.Watts) {
	if s.node.BusyCores() > 0 {
		s.meter.Observe(from, to, w)
	} else {
		s.meter.Skip(from, to)
	}
	if s.co2 != nil {
		s.co2.Advance(to, w)
	}
}

// dropRunning removes rt from the running set.
func (s *sedState) dropRunning(rt *runningTask) {
	i := slices.Index(s.running, rt)
	last := len(s.running) - 1
	s.running[i] = s.running[last]
	s.running[last] = nil
	s.running = s.running[:last]
}

// advanceBusy accrues busy-core-seconds up to now.
func (s *sedState) advanceBusy(now float64) {
	s.busyIntegral += float64(len(s.running)) * (now - s.busyAt)
	s.busyAt = now
}

type pendingTask struct {
	task      workload.Task
	resubmits int
	// waiting marks a task already counted in Runner.unplaced while it
	// retries election. removed marks a tombstoned queue slot (see
	// sedState.queue); it shares waiting's padding word, so the arena
	// entry does not grow.
	waiting bool
	removed bool

	// admitted marks a task that already passed the admission screen
	// (a queued task migrating off a crashed node): it must never be
	// re-screened at a later, slack-poorer time.
	admitted bool

	// preemptions counts checkpoint/displace cycles; task.Ops then
	// holds the remaining (penalty-inflated) work, and carriedJ /
	// carriedG accumulate the energy and emissions the preempted
	// segments already charged, folded into the final TaskRecord.
	preemptions int
	carriedJ    float64
	carriedG    float64
}

type runningTask struct {
	task  workload.Task
	sed   *sedState
	start float64
	// finishAt is when the finish event fires. It carries slot, the
	// record's index in Runner.rts, and gen, which freeRunning bumps: a
	// cancelled finish pops stale, even once the slot is recycled.
	finishAt  float64
	slot      int32
	gen       uint32
	resubmits int
	// busyMark is the SED's busy-core-seconds at task start; the
	// difference at finish divided by the duration is the mean
	// concurrency the energy attribution splits by.
	busyMark float64

	// plannedExec is the scheduled execution time of this segment
	// (contention and jitter applied); preemption derives the completed
	// Ops fraction from elapsed/plannedExec.
	plannedExec float64
	// Checkpoint state carried across preemptions (see pendingTask).
	preemptions int
	carriedJ    float64
	carriedG    float64
}

func (s *sedState) freeSlots() int {
	if s.node.State() != power.On {
		return 0
	}
	free := s.slots - len(s.running)
	if free < 0 {
		return 0
	}
	return free
}

// queueKey is one queued task's entry in its SED's discipline heap:
// the view the discipline ranks on, taken at enqueue, and the task's
// slot in the queue arena, which also breaks ties in insertion order.
type queueKey struct {
	view sched.TaskView
	slot int
}

// qlen returns the live backlog length.
func (s *sedState) qlen() int { return len(s.queue) - s.qhead - s.dead }

// queued returns the backlog arena in insertion order, tombstones
// (removed) included; walks skip them.
func (s *sedState) queued() []pendingTask { return s.queue[s.qhead:] }

// pushQueue appends a task to the backlog. An exact drained heap is
// advanced by the new tail's drain step — the earliest slot takes it —
// instead of being thrown away. Under a discipline the caller indexes
// the new tail (Runner.enqueue).
func (s *sedState) pushQueue(p pendingTask) {
	s.queue = append(s.queue, p)
	drained := s.drained()
	s.bumpWait()
	if drained {
		s.avail[0] += s.node.Spec.TaskSeconds(p.task.Ops)
		floatHeapFix(s.avail)
		s.availVer = s.mutVer + 1
	}
}

// nextQueued returns the index (into queued()) of the task a freed
// slot serves next: the discipline heap's top, or the head under FIFO.
func (s *sedState) nextQueued() int {
	if s.order != nil {
		return s.disc[0].slot - s.qhead
	}
	return 0
}

// aheadOfAll reports whether a task with view v would be served before
// every queued task under the discipline. The heap's top is a minimal
// task, and a strict weak order puts v before all of them exactly when
// it puts v before that one.
func (s *sedState) aheadOfAll(v sched.TaskView) bool {
	return s.qlen() == 0 || s.order.Less(v, s.disc[0].view)
}

// removeQueued removes and returns the backlog entry at index i (an
// index into queued(), which must not be a tombstone). The head case —
// every FIFO dequeue — advances qhead in O(1) past the head and any
// tombstones behind it; any other entry becomes a tombstone. The
// backing array is reset once drained and compacted when the dead
// entries dominate, so a million-task run reuses one arena instead of
// memmoving the queue on every start.
func (s *sedState) removeQueued(i int) pendingTask {
	j := s.qhead + i
	p := s.queue[j]
	if s.order != nil {
		s.unindex(j)
	}
	s.queue[j] = pendingTask{removed: true}
	if i == 0 {
		s.qhead++
		for s.qhead < len(s.queue) && s.queue[s.qhead].removed {
			s.qhead++
			s.dead--
		}
	} else {
		s.dead++
	}
	switch gone := s.qhead + s.dead; {
	case s.qhead == len(s.queue):
		s.queue = s.queue[:0]
		s.qhead = 0
	case gone >= 256 && gone*2 >= len(s.queue):
		s.compact()
	}
	s.bumpWait()
	return p
}

// compact moves the live backlog to the front of the arena, in order,
// and renumbers the discipline heap's slots to match. Renumbering keeps
// the slots' relative order, so the heap stays a heap.
func (s *sedState) compact() {
	if s.dead == 0 {
		// Only a dead prefix — every FIFO compaction: one memmove.
		n := copy(s.queue, s.queue[s.qhead:])
		s.queue = s.queue[:n]
		for k := range s.disc {
			s.disc[k].slot -= s.qhead
		}
		s.qhead = 0
		return
	}
	s.renum = s.renum[:0]
	n := 0
	for _, p := range s.queue[s.qhead:] {
		s.renum = append(s.renum, n)
		if !p.removed {
			s.queue[n] = p
			n++
		}
	}
	for k := range s.disc {
		s.disc[k].slot = s.renum[s.disc[k].slot-s.qhead]
	}
	s.queue = s.queue[:n]
	s.qhead, s.dead = 0, 0
}

// clearQueue empties the backlog (crash path), keeping the arena.
func (s *sedState) clearQueue() {
	s.queue = s.queue[:0]
	s.qhead, s.dead = 0, 0
	s.disc = s.disc[:0]
	s.bumpWait()
}

// index adds the backlog's tail to the discipline heap under view v.
func (s *sedState) index(v sched.TaskView) {
	s.disc = append(s.disc, queueKey{view: v, slot: len(s.queue) - 1})
	s.discUp(len(s.disc) - 1)
}

// unindex removes the heap entry of arena slot j. The dequeue path
// removes the top, found at once; only an out-of-discipline removal
// searches. Floyd's deletion walks the hole down to a leaf, promoting
// the smaller child — one comparison per level, not two — then settles
// the heap's last entry into it from below.
func (s *sedState) unindex(j int) {
	k := 0
	for s.disc[k].slot != j {
		k++
	}
	last := len(s.disc) - 1
	for c := 2*k + 1; c < last; c = 2*k + 1 {
		if c+1 < last && s.discLess(c+1, c) {
			c++
		}
		s.disc[k] = s.disc[c]
		k = c
	}
	s.disc[k] = s.disc[last]
	s.disc = s.disc[:last]
	if k < last {
		s.discUp(k)
	}
}

// discLess orders heap entries i and j: discipline first, then slot.
func (s *sedState) discLess(i, j int) bool {
	a, b := &s.disc[i], &s.disc[j]
	if s.order.Less(a.view, b.view) {
		return true
	}
	if s.order.Less(b.view, a.view) {
		return false
	}
	return a.slot < b.slot
}

func (s *sedState) discUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.discLess(i, p) {
			return
		}
		s.disc[i], s.disc[p] = s.disc[p], s.disc[i]
		i = p
	}
}

// bumpWait invalidates the drained heap; every queue or running-set
// mutation (including finish-event cancellations) must pass through
// here.
func (s *sedState) bumpWait() { s.mutVer++ }

// drained reports whether avail holds the exact drain of the current
// running set and backlog.
func (s *sedState) drained() bool { return s.availVer == s.mutVer+1 }

// waitEstimate computes ws: the time a newly queued task would wait
// before starting, from the SED's exact knowledge of its running and
// queued work (§III-C assumes task durations are known to the
// scheduler).
//
// When every slot is occupied the availability times are absolute
// finish times, independent of now, so the drained heap is kept across
// probes and advanced in place by the mutations listed on sedState:
// a probe costs O(1), a push O(log slots), and a full O(queue) drain
// runs only after an invalidating mutation. Every kept step performs
// the same addition on the same multiset of availability times, in the
// same order, as a drain that re-sorts the slot times after each queued
// task, so the returned floats are bit-identical to that drain's (see
// sortDrainWait in waitestimate_test.go).
func (s *sedState) waitEstimate(now float64) float64 {
	if s.qlen() == 0 && (s.freeSlots() > 0 || len(s.running) == 0) {
		// Free capacity — or nothing running and nothing queued, where
		// the padded availability times are all "now" either way.
		return 0
	}
	var first float64
	switch {
	case len(s.running) < s.slots:
		// Free slots padded with "now" (a backlog on a booting/off
		// node): time-dependent, computed fresh per probe.
		first = s.firstFree(now, true)
	case s.drained():
		first = s.avail[0]
	default:
		first = s.firstFree(now, false)
	}
	if w := first - now; w > 0 {
		return w
	}
	return 0
}

// firstFree re-drains the backlog from scratch over the
// slot-availability min-heap — one sift-down per queued task — and
// returns the absolute time a slot first frees for a new task. pad
// fills unoccupied slots with now (a free slot counts as available
// immediately); a padded heap depends on now, so it is never kept,
// while an unpadded one becomes the SED's drained heap.
func (s *sedState) firstFree(now float64, pad bool) float64 {
	s.drains++
	avail := s.avail[:0]
	for _, rt := range s.running {
		avail = append(avail, rt.finishAt)
	}
	if pad {
		for len(avail) < s.slots {
			avail = append(avail, now)
		}
	}
	s.avail = avail
	floatHeapInit(avail)
	// Walk the arena by index: ranging over the entries by value would
	// copy each pendingTask. The division is TaskSeconds', unrolled so
	// the NodeSpec is read once per drain, not copied once per step.
	flops := s.node.Spec.FlopsPerCore
	q := s.queued()
	for i := range q {
		if q[i].removed {
			continue
		}
		// start := avail[0]; the queued task occupies the earliest
		// slot, which then frees at start + exec.
		avail[0] += q[i].task.Ops / flops
		floatHeapFix(avail)
	}
	s.availVer = 0
	if !pad {
		s.availVer = s.mutVer + 1
	}
	return avail[0]
}

// floatHeapInit establishes the min-heap property.
func floatHeapInit(h []float64) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		floatHeapSift(h, i)
	}
}

// floatHeapFix restores the heap after the root changed.
func floatHeapFix(h []float64) { floatHeapSift(h, 0) }

func floatHeapSift(h []float64, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h[l] < h[m] {
			m = l
		}
		if r < len(h) && h[r] < h[m] {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// fillVector populates v with the SED's estimation vector — the
// default estimation function of the paper's plug-in scheduler,
// extended with the energy tags (§III-A: "These metrics are
// incorporated into DIET SED to populate its estimation vector using
// new tags"). The election loop fills per-SED scratch vectors in place. With
// bypassCandidacy set, SLA express traffic (sla.Config.UrgentBypass)
// may elect any *powered-on* node even while a controller has revoked
// its candidacy to defer deferrable work. Powered-off nodes stay
// unusable either way.
func (s *sedState) fillVector(v *estvec.Vector, now float64, rng *rand.Rand, bypassCandidacy bool) {
	v.Reset(s.node.Spec.Name).
		Set(estvec.TagFreeCores, float64(s.freeSlots())).
		Set(sched.TagCores(), float64(s.slots)).
		Set(estvec.TagQueueLen, float64(s.qlen())).
		Set(estvec.TagWaitSec, s.waitEstimate(now)).
		Set(estvec.TagBootSec, s.node.Spec.BootSec).
		Set(estvec.TagBootPowerW, s.node.Spec.BootW).
		SetBool(estvec.TagActive, (s.candidate || bypassCandidacy) && s.node.State() == power.On).
		Set(estvec.TagRandom, rng.Float64())

	if s.site != nil {
		v.Set(estvec.TagCarbonIntensity, s.site.Signal.IntensityAt(now)).
			Set(estvec.TagRenewableFrac, s.site.Signal.RenewableAt(now))
	}

	if s.static != nil {
		v.SetBool(estvec.TagKnown, true).
			Set(estvec.TagRequests, 1e9). // static: never "novice"
			Set(estvec.TagFlops, s.static.Flops).
			Set(estvec.TagPowerW, s.static.MeanWatts).
			Set(estvec.TagGreenPerf, s.static.GreenPerf())
		return
	}

	v.SetBool(estvec.TagKnown, s.est.Known()).
		Set(estvec.TagRequests, float64(s.est.Requests()))
	if f, ok := s.est.Flops(); ok {
		v.Set(estvec.TagFlops, f)
	}
	if p, ok := s.est.Power(); ok {
		v.Set(estvec.TagPowerW, p)
	}
	if gp, ok := s.est.GreenPerf(); ok {
		v.Set(estvec.TagGreenPerf, gp)
	}
}

// event is one kernel event: a value, so scheduling it allocates
// nothing once the queue has grown. ref indexes the state kind acts on.
type event struct {
	kind evKind
	ref  int32
	gen  uint32
}

type evKind uint8

const (
	evArrival  evKind = iota // ref: the arrival cursor's index into Runner.arrivals
	evFinish                 // ref: the runningTask's slot in Runner.rts; gen: its generation
	evPending                // ref: a slot in Runner.pend (retry, crash resubmission, preemption restart)
	evCrash                  // ref: SED index
	evBootDone               // ref: SED index
	evTick                   // module control tick, every Config.ControlEvery
)

// Runner executes one configured simulation.
type Runner struct {
	cfg   Config
	q     simtime.Queue[event]
	fired uint64 // live events Run has fired: what the event budget counts
	rng   *rand.Rand
	seds  []*sedState
	sel   *sched.Selector
	res   *Result

	// lobs caches the stack's LifecycleObserver implementations; empty
	// for most runs, so reporting a stage costs one nil-slice check.
	lobs []LifecycleObserver
	// feeders caches the stack's Feeder implementations and fed counts
	// the tasks they submitted.
	feeders []Feeder
	fed     int

	lastFinish float64
	unplaced   int // submitted tasks no server could accept yet
	// waiting holds the unplaced tasks themselves (keyed by ID) so
	// controllers can see the most urgent pending deadline.
	waiting map[int]workload.Task

	// sla and pre are installed by SLAModule / PreemptModule Init.
	sla *sla.Config
	pre *sla.Preemption

	// SLA state: the effective catalog, resolved terms per task ID and
	// the revenue ledger. The queue discipline lives on each SED
	// (sedState.order).
	catalog sla.Catalog
	terms   map[int]sla.Terms
	ledger  *sla.Ledger

	// Scratch, so that neither an election nor a tick allocates: one
	// estimation vector per SED, the candidate list and per-task
	// selector; arrival, the task OnArrival hooks mutate (a pointer an
	// interface method receives escapes, so it must not be a local's);
	// the Control ticks and feeds hand out; pickVictim's slices.
	vecs       []estvec.Vector
	list       estvec.List
	selScratch sched.Selector
	arrival    workload.Task
	ctl        runnerControl
	victims    []*runningTask
	views      []sched.VictimView
	// arrivals indexes Config.Tasks in stable (Submit, config-order)
	// order for the arrival cursor. rts holds every runningTask by slot,
	// pend the tasks in evPending events; rtFree and pendFree list free
	// slots.
	arrivals []int32
	rts      []*runningTask
	rtFree   []int32
	pend     []pendingTask
	pendFree []int32
}

// resolved counts tasks whose fate is settled (completed or rejected).
func (r *Runner) resolved() int { return r.res.Completed + r.res.Rejected }

// submitted counts the run's tasks: the configured ones plus those
// feeders submitted so far.
func (r *Runner) submitted() int { return len(r.cfg.Tasks) + r.fed }

// NewRunner validates the config and builds the initial state.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	for _, t := range cfg.Tasks {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	r := &Runner{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		waiting: make(map[int]workload.Task),
		res: &Result{
			Policy:           cfg.Policy.Name(),
			PerNodeTasks:     make(map[string]int),
			PerNodeEnergyJ:   make(map[string]power.Joules),
			PerClusterTasks:  make(map[string]int),
			PerClusterEnergy: make(map[string]power.Joules),
			PerNodeCO2G:      make(map[string]float64),
			PerClusterCO2:    make(map[string]float64),
		},
	}
	r.sel = &sched.Selector{Policy: cfg.Policy, QueueFactor: cfg.QueueFactor, Explore: cfg.Explore, RankAll: cfg.RankAll}
	for i, spec := range cfg.Platform.Nodes {
		meter := power.NewWattmeter(cfg.Seed + int64(i) + 1)
		meter.NoiseW = cfg.MeterNoiseW
		slots := spec.Cores
		if cfg.SlotsPerNode > 0 && cfg.SlotsPerNode < slots {
			slots = cfg.SlotsPerNode
		}
		sed := &sedState{
			idx:       i,
			node:      cluster.NewNode(spec, 0, nil),
			est:       power.NewEstimator(cfg.EstimatorWindow),
			meter:     meter,
			slots:     slots,
			running:   make([]*runningTask, 0, slots),
			candidate: true,
		}
		sed.node.OnSettle = sed.settled
		if cfg.Static {
			cal := cluster.BenchmarkNode(spec, 1e9, 0, nil)
			sed.static = &cal
		}
		r.seds = append(r.seds, sed)
	}
	r.vecs = make([]estvec.Vector, len(r.seds))
	r.list = make(estvec.List, 0, len(r.seds))
	// The module stack attaches last, over fully built platform state.
	for _, m := range cfg.Modules {
		if err := m.Init(r); err != nil {
			return nil, err
		}
		if o, ok := m.(LifecycleObserver); ok {
			r.lobs = append(r.lobs, o)
		}
		if f, ok := m.(Feeder); ok {
			r.feeders = append(r.feeders, f)
		}
	}
	if len(cfg.Tasks) == 0 && len(r.feeders) == 0 {
		return nil, fmt.Errorf("sim: config needs tasks or a feeder module")
	}
	return r, nil
}

// control returns the run's Control at now.
func (r *Runner) control(now float64) *runnerControl {
	r.ctl = runnerControl{r: r, now: now}
	return &r.ctl
}

// feed hands every feeder the Control at now.
func (r *Runner) feed(now float64) {
	for _, f := range r.feeders {
		f.Feed(now, r.control(now))
	}
}

// stage tells the stack's observers that t entered a stage (see
// LifecycleObserver).
func (r *Runner) stage(now float64, t workload.Task, stage, server, err string) {
	for _, o := range r.lobs {
		o.OnStage(now, t, stage, server, err)
	}
}

// Run executes the simulation to completion and returns the result.
func Run(cfg Config) (*Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// Run drives the event loop until all tasks complete.
func (r *Runner) Run() (*Result, error) {
	// A single self-advancing cursor walks the tasks in stable (Submit,
	// config-order) order, draining every arrival that shares an
	// instant in one event. The order is an index over Config.Tasks,
	// which stays where the caller put it.
	tasks := r.cfg.Tasks
	r.arrivals = make([]int32, len(tasks))
	for i := range r.arrivals {
		r.arrivals[i] = int32(i)
	}
	slices.SortStableFunc(r.arrivals, func(a, b int32) int {
		return cmp.Compare(tasks[a].Submit, tasks[b].Submit)
	})
	r.scheduleArrivals(0)
	for name, at := range r.cfg.Crashes {
		idx := r.cfg.Platform.Find(name)
		if idx < 0 {
			return nil, fmt.Errorf("sim: crash configured for unknown node %q", name)
		}
		r.q.Push(at, event{kind: evCrash, ref: int32(idx)})
	}
	if r.cfg.ControlEvery > 0 && len(r.cfg.Modules) > 0 {
		r.after(r.cfg.ControlEvery, event{kind: evTick})
	}
	if len(r.feeders) > 0 {
		r.feed(0)
	}
	// Budget: generous multiple of task count, to catch livelocks
	// without bounding legitimate runs; feeders raise the count as the
	// run goes. Stale records neither count nor keep a run alive.
	for r.live() {
		if r.fired >= r.budget() {
			return nil, fmt.Errorf("sim: event budget %d exhausted at %v with events pending", r.budget(), simtime.Time(r.q.Now()))
		}
		r.fired++
		r.step()
	}
	if r.resolved() != r.submitted() {
		return nil, fmt.Errorf("sim: only %d of %d tasks resolved (stuck queue?)", r.resolved(), r.submitted())
	}
	r.finalize()
	return r.res, nil
}

// budget is the run's event budget for the tasks submitted so far.
func (r *Runner) budget() uint64 { return uint64(r.submitted())*64 + 1<<20 }

// after schedules ev d seconds after the current event.
func (r *Runner) after(d float64, ev event) { r.q.Push(r.q.Now()+d, ev) }

// live drops stale finishes off the top of the queue and reports
// whether a live event remains.
func (r *Runner) live() bool {
	for r.q.Len() > 0 {
		if ev := r.q.Peek(); ev.kind != evFinish || r.rts[ev.ref].gen == ev.gen {
			return true
		}
		r.q.Pop()
	}
	return false
}

// step fires the earliest event, which live has found live.
func (r *Runner) step() {
	now, ev := r.q.Pop()
	switch ev.kind {
	case evArrival: // every task submitted at this instant, then re-arm
		j, at := int(ev.ref), r.arrivalAt(int(ev.ref))
		for ; j < len(r.arrivals) && r.arrivalAt(j) == at; j++ {
			r.onArrival(now, pendingTask{task: r.cfg.Tasks[r.arrivals[j]]})
		}
		r.scheduleArrivals(j)
	case evFinish:
		r.onFinish(now, r.rts[ev.ref])
	case evPending:
		r.pendFree = append(r.pendFree, ev.ref)
		r.onArrival(now, r.pend[ev.ref])
	case evCrash:
		r.onCrash(now, r.seds[ev.ref])
	case evBootDone:
		r.onBootDone(now, r.seds[ev.ref])
	case evTick:
		r.onTick(now)
	}
}

// scheduleArrivals arms the arrival cursor at the i-th arrival's
// submit time. The cursor is a front-class event
// (simtime.Queue.PushFront): tasks submitted at t arrive before any
// crash, retry, resubmission, tick or finish at t runs, however
// early that event was scheduled.
func (r *Runner) scheduleArrivals(i int) {
	if i < len(r.arrivals) {
		r.q.PushFront(r.arrivalAt(i), event{kind: evArrival, ref: int32(i)})
	}
}

// arrivalAt returns the i-th arrival's submit time.
func (r *Runner) arrivalAt(i int) float64 { return r.cfg.Tasks[r.arrivals[i]].Submit }

// requeue schedules p to re-enter election d seconds from now.
func (r *Runner) requeue(d float64, p pendingTask) {
	i := int32(len(r.pend))
	if n := len(r.pendFree); n > 0 {
		i, r.pendFree = r.pendFree[n-1], r.pendFree[:n-1]
		r.pend[i] = p
	} else {
		r.pend = append(r.pend, p)
	}
	r.after(d, event{kind: evPending, ref: i})
}

func (r *Runner) onArrival(now float64, p pendingTask) {
	// First submissions only (not retries, crash resubmissions,
	// crash-migrated queued tasks or preemption restarts): modules
	// observe the task, then the admission screen runs.
	if !p.waiting && !p.admitted && p.resubmits == 0 && p.preemptions == 0 {
		r.arrival = p.task
		for _, m := range r.cfg.Modules {
			m.OnArrival(now, &r.arrival)
		}
		p.task = r.arrival
		// Observers see post-OnArrival state, so class mutations show on
		// the trace exactly as they reach admission below.
		r.stage(now, p.task, obs.StageSubmit, "", "")
		if r.sla != nil {
			// Re-resolve the task's terms so OnArrival mutations
			// (class, deadline, value) reach admission, the ledger and
			// the queue discipline. Unmutated tasks resolve to the
			// identical terms Init computed.
			r.terms[p.task.ID] = r.catalog.Resolve(p.task)
		}
		if r.sla != nil && r.sla.Admission != nil {
			terms := r.terms[p.task.ID]
			if r.sla.Admission.Decide(now, r.bestExec(p.task.Ops), terms) == sla.Reject {
				r.ledger.Reject(terms)
				r.res.Rejected++
				r.res.Rejections = append(r.res.Rejections, Rejection{
					ID: p.task.ID, Class: terms.Class, ValueUSD: terms.ValueUSD, At: now,
				})
				r.stage(now, p.task, obs.StageAdmission, "", "admission: best case earns nothing")
				return
			}
		}
	}
	// SLA express lane: deadline-carrying tasks may bypass candidacy
	// windows (controllers defer only deferrable work through them).
	bypass := r.sla != nil && r.sla.UrgentBypass && r.taskView(p.task).Deadline > 0
	// Zero-alloc election inner loop: refill the per-SED scratch vectors
	// in place. Nothing downstream retains the vectors past this arrival
	// (Select reads; the chosen server's name is copied out), so reuse
	// is safe.
	list := r.list[:0]
	for i, sed := range r.seds {
		v := &r.vecs[i]
		sed.fillVector(v, now, r.rng, bypass)
		list = append(list, v)
	}
	r.list = list
	// Election policy: each module may wrap (or replace) the policy the
	// previous one produced, starting from the run's base policy.
	sel := r.sel
	if len(r.cfg.Modules) > 0 {
		pol := r.sel.Policy
		for _, m := range r.cfg.Modules {
			pol = m.WrapPolicy(now, p.task, pol)
		}
		r.selScratch = *r.sel
		r.selScratch.Policy = pol
		sel = &r.selScratch
	}
	chosen, err := sel.Select(list)
	if err != nil {
		// No candidate can take the request (all powered off or
		// candidacy revoked): retry shortly — a controller powers nodes
		// back on or restores candidacy; the placement experiments
		// never hit this. Count it once so controllers see the backlog.
		if !p.waiting {
			p.waiting = true
			r.unplaced++
			r.waiting[p.task.ID] = p.task
			r.stage(now, p.task, obs.StagePark, "", "")
		}
		r.requeue(r.cfg.RetryEvery, p)
		return
	}
	if p.waiting {
		p.waiting = false
		r.unplaced--
		delete(r.waiting, p.task.ID)
	}
	r.stage(now, p.task, obs.StageElect, chosen.Server, "")
	sed := r.seds[r.cfg.Platform.Find(chosen.Server)]
	switch {
	case sed.freeSlots() > 0:
		r.startTask(now, sed, p)
	case r.tryPreempt(now, sed, p):
		// A victim was checkpointed and the urgent task started in its
		// slot.
	default:
		r.enqueue(sed, p)
	}
}

// enqueue appends p to sed's backlog and, under a queue discipline,
// indexes it by its view.
func (r *Runner) enqueue(sed *sedState, p pendingTask) {
	sed.pushQueue(p)
	if sed.order != nil {
		sed.index(r.taskView(p.task))
	}
}

// bestExec returns the platform's best-case execution time for a task
// — the fastest node, a free core, no queue. Admission control uses
// it as the "provably cannot serve" bound. Crashed nodes are excluded:
// a dead node's speed is not capacity, and ranking it here would admit
// work whose only feasible server no longer exists. Powered-off nodes
// still count — a controller can boot them. With every node failed the
// bound is +Inf, so admission rejects deadline work outright.
func (r *Runner) bestExec(ops float64) float64 {
	best, found := 0.0, false
	for _, sed := range r.seds {
		if sed.failed {
			continue
		}
		e := sed.node.Spec.TaskSeconds(ops)
		if !found || e < best {
			best, found = e, true
		}
	}
	if !found {
		return math.Inf(1)
	}
	return best
}

func (r *Runner) startTask(now float64, sed *sedState, p pendingTask) {
	if err := sed.node.StartTask(now); err != nil {
		panic(fmt.Sprintf("sim: %v (selector bug)", err))
	}
	exec := sed.node.Spec.TaskSeconds(p.task.Ops)
	if c := r.cfg.Contention; c > 0 {
		coRunners := float64(sed.node.BusyCores()-1) / float64(sed.node.Spec.Cores)
		exec /= 1 - c*coRunners
	}
	if j := r.cfg.ExecJitter; j > 0 {
		exec *= 1 + (r.rng.Float64()*2-1)*j
	}
	sed.advanceBusy(now)
	rt := r.newRunning()
	*rt = runningTask{
		task: p.task, sed: sed, start: now, finishAt: r.q.Now() + exec, slot: rt.slot, gen: rt.gen,
		resubmits: p.resubmits, busyMark: sed.busyIntegral,
		plannedExec: exec, preemptions: p.preemptions, carriedJ: p.carriedJ, carriedG: p.carriedG,
	}
	r.q.Push(rt.finishAt, event{kind: evFinish, ref: rt.slot, gen: rt.gen})
	sed.running = append(sed.running, rt)
	sed.bumpWait()
	r.stage(now, p.task, obs.StageSolve, sed.node.Spec.Name, "")
}

// newRunning takes a free runningTask slot or allocates a new one.
func (r *Runner) newRunning() *runningTask {
	if n := len(r.rtFree); n > 0 {
		i := r.rtFree[n-1]
		r.rtFree = r.rtFree[:n-1]
		return r.rts[i]
	}
	rt := &runningTask{slot: int32(len(r.rts))}
	r.rts = append(r.rts, rt)
	return rt
}

// freeRunning recycles a runningTask whose fields have been copied
// out. Bumping its generation cancels a finish event still queued for
// it: that record pops stale.
func (r *Runner) freeRunning(rt *runningTask) {
	*rt = runningTask{slot: rt.slot, gen: rt.gen + 1}
	r.rtFree = append(r.rtFree, rt.slot)
}

func (r *Runner) onFinish(now float64, rt *runningTask) {
	sed := rt.sed
	sed.advanceBusy(now)
	sed.dropRunning(rt)
	sed.bumpWait()
	// A drained heap (only ever kept for a full SED) gave the earliest
	// finish — this one: events fire in time order — to the
	// insertion-order head as its first drain step. availVer == vacated
	// says the heap was exact just before this removal; the refill below
	// may keep it.
	vacated := sed.mutVer
	duringW := sed.node.Power() // draw while the task was still running
	if err := sed.node.FinishTask(now); err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	meanW, n := sed.meter.MeanWindow(rt.start, now)
	if n == 0 {
		// Task shorter than the meter period: attribute the draw
		// the node had while the task ran.
		meanW = duringW
	}
	sed.forgetMeter(now)
	exec := now - rt.start
	if sed.static == nil {
		sed.est.ObserveRequest(meanW, rt.task.Ops, exec)
	}
	rec := TaskRecord{
		ID:          rt.task.ID,
		Server:      sed.node.Spec.Name,
		Cluster:     sed.node.Spec.Cluster,
		Submit:      rt.task.Submit,
		Start:       rt.start,
		Finish:      now,
		MeanPowerW:  meanW,
		Resubmits:   rt.resubmits,
		Preemptions: rt.preemptions,
		Deadline:    rt.task.Deadline,
		Class:       rt.task.Class,
	}
	if r.sla != nil {
		terms := r.terms[rt.task.ID]
		rec.Deadline = terms.Deadline
		rec.EarnedUSD = terms.EarnedUSD(now)
		r.ledger.Complete(terms, now)
	}
	if rec.Deadline > 0 && now > rec.Deadline {
		r.res.DeadlineMisses++
	}
	// Per-task energy share: the node's measured draw over the window,
	// split across the mean number of co-running tasks so concurrent
	// tasks divide the node's joules instead of each claiming all.
	// Preempted segments were charged the same way at checkpoint time
	// and carried forward, so the record still accounts every joule the
	// task consumed.
	meanBusy := (sed.busyIntegral - rt.busyMark) / exec
	if meanBusy < 1 {
		meanBusy = 1
	}
	rec.EnergyShareJ = meanW*exec/meanBusy + rt.carriedJ
	rec.CO2Grams = rt.carriedG
	if sed.site != nil {
		// Carbon attribution: the final segment's energy share
		// integrated against the site's intensity over its window.
		rec.CO2Grams += carbon.Grams(*sed.site, meanW*exec/meanBusy, rt.start, now)
	}
	r.res.waitSum += rec.Wait()
	r.res.Completed++
	for _, m := range r.cfg.Modules {
		m.OnFinish(rec)
	}
	r.res.PerNodeTasks[rec.Server]++
	r.res.PerClusterTasks[rec.Cluster]++
	if now > r.lastFinish {
		r.lastFinish = now
	}
	// The refill repeats that drain step exactly — and keeps the heap —
	// when the hooks above neither mutated the SED (mutVer) nor probed
	// it (a padded probe overwrites avail and resets availVer), the
	// freed slot serves the insertion-order head (always under FIFO; a
	// discipline whose top is the head), its planned exec is
	// TaskSeconds (no contention or jitter), and drainQueue starts just
	// that one task: one removal plus one start, two bumps.
	keep := sed.availVer == vacated && sed.mutVer == vacated &&
		sed.qlen() > 0 && sed.nextQueued() == 0 &&
		r.cfg.Contention <= 0 && r.cfg.ExecJitter <= 0
	r.drainQueue(now, sed)
	if keep && sed.mutVer == vacated+2 {
		sed.availVer = sed.mutVer + 1
	}
	if len(sed.running) == 0 && sed.qlen() == 0 {
		sed.idleAt = now
	}
	r.freeRunning(rt)
	if len(r.feeders) > 0 {
		r.feed(now)
	}
}

func (r *Runner) drainQueue(now float64, sed *sedState) {
	for sed.qlen() > 0 && sed.freeSlots() > 0 {
		p := sed.removeQueued(sed.nextQueued())
		r.startTask(now, sed, p)
	}
}

// taskView projects a task into the slice queue disciplines rank on,
// with class defaults resolved when SLA is configured.
func (r *Runner) taskView(t workload.Task) sched.TaskView {
	v := sched.TaskView{ID: t.ID, Ops: t.Ops, Submit: t.Submit, Deadline: t.Deadline, Value: t.Value}
	if terms, ok := r.terms[t.ID]; ok {
		v.Deadline = terms.Deadline
		v.Value = terms.ValueUSD
	}
	return v
}

func (r *Runner) onCrash(now float64, sed *sedState) {
	// Collect and cancel in-flight work, then fail the node. Only
	// running tasks lose an execution (and are charged a resubmit):
	// queued work never started, so it migrates to a fresh election
	// with its stats untouched instead of inflating Result.Crashed.
	sed.advanceBusy(now)
	var lost []pendingTask
	for _, rt := range sed.running {
		lost = append(lost, pendingTask{
			task: rt.task, resubmits: rt.resubmits + 1,
			preemptions: rt.preemptions, carriedJ: rt.carriedJ, carriedG: rt.carriedG,
		})
		r.freeRunning(rt)
	}
	clear(sed.running)
	sed.running = sed.running[:0]
	sed.bumpWait()
	// Lost executions fail on the trace in ID order — the running set's
	// order must not leak into it.
	sort.Slice(lost, func(i, j int) bool { return lost[i].task.ID < lost[j].task.ID })
	for _, p := range lost {
		r.stage(now, p.task, obs.StageSolve, sed.node.Spec.Name, "node crash")
	}
	r.res.Crashed += len(lost)
	for _, p := range sed.queued() {
		if p.removed {
			continue
		}
		p.admitted = true // already screened; never re-screen at crash time
		lost = append(lost, p)
	}
	sed.clearQueue()
	sed.node.Crash(now)
	sed.forgetMeter(now)
	sed.candidate = false
	sed.failed = true
	// Deterministic resubmission order.
	sort.Slice(lost, func(i, j int) bool { return lost[i].task.ID < lost[j].task.ID })
	for _, p := range lost {
		r.requeue(0, p)
	}
}

func (r *Runner) finalize() {
	makespan := r.lastFinish
	r.res.Makespan = makespan
	for _, sed := range r.seds {
		// A controller-issued boot can complete after the last task
		// finish; never settle a node backwards — its boot energy is
		// real (and honestly charged to the run that wasted it).
		end := makespan
		if t := sed.node.LastSettle(); t > end {
			end = t
		}
		sed.node.Settle(end)
		e := sed.node.Energy()
		r.res.PerNodeEnergyJ[sed.node.Spec.Name] = e
		r.res.PerClusterEnergy[sed.node.Spec.Cluster] += e
		r.res.EnergyJ += e
		if sed.co2 != nil {
			g := sed.co2.Grams()
			r.res.PerNodeCO2G[sed.node.Spec.Name] = g
			r.res.PerClusterCO2[sed.node.Spec.Cluster] += g
			r.res.CO2Grams += g
		}
	}
	for _, m := range r.cfg.Modules {
		m.Finalize(r.res)
	}
}
