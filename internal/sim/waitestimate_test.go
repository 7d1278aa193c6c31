package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"greensched/internal/cluster"
	"greensched/internal/power"
	"greensched/internal/sched"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// This file pins the wait estimate and the dequeue: the SED's drained
// slot-availability heap, kept across probes and advanced in place by
// pushes and FIFO refills, must return bit-identical floats to a fresh
// drain and to sortDrainWait on arbitrary SED states; the discipline
// heap must pick what scanNextQueued picks; the hot path must not
// allocate; and a backlogged run must re-drain each SED's queue a
// bounded number of times, not once per mutation, and consult its
// discipline O(log queue) times per task, not once per queued task.

// sortDrainWait is the reference wait estimate: the slot-availability
// times (finish times, padded with now for free slots) re-sorted after
// every drain step. It allocates per probe; it serves only as an oracle.
func sortDrainWait(s *sedState, now float64) float64 {
	if s.freeSlots() > 0 && s.qlen() == 0 {
		return 0
	}
	avail := make([]float64, 0, s.slots)
	for _, rt := range s.running {
		avail = append(avail, rt.finishAt)
	}
	for len(avail) < s.slots {
		avail = append(avail, now)
	}
	sort.Float64s(avail)
	// Drain the queue ahead of the hypothetical new task.
	for _, p := range s.queued() {
		if p.removed {
			continue
		}
		avail[0] += s.node.Spec.TaskSeconds(p.task.Ops)
		sort.Float64s(avail)
	}
	w := avail[0] - now
	if w < 0 {
		w = 0
	}
	return w
}

// waitSED builds a SED with nrun running tasks (finish times drawn
// from rng) and nq queued tasks, at virtual time now.
func waitSED(t *testing.T, rng *rand.Rand, slots, nrun, nq int, now float64) *sedState {
	t.Helper()
	spec := smallPlatform().Nodes[0]
	sed := &sedState{
		node:  cluster.NewNode(spec, 0, power.NewWattmeter(1)),
		est:   power.NewEstimator(8),
		slots: slots,
	}
	for i := 0; i < nrun; i++ {
		if err := sed.node.StartTask(now); err != nil {
			t.Fatal(err)
		}
		rt := &runningTask{start: now, finishAt: now + 1 + rng.Float64()*500}
		sed.running = append(sed.running, rt)
		sed.bumpWait()
	}
	for i := 0; i < nq; i++ {
		sed.pushQueue(pendingTask{task: workload.Task{ID: 1000 + i, Ops: (1 + rng.Float64()*9) * 1e11}})
	}
	return sed
}

// TestWaitEstimateMatchesSortDrain: the heap/cached estimate equals the
// sort-based reference bit-for-bit across randomized states, repeated
// probes (cache hits) and interleaved mutations.
func TestWaitEstimateMatchesSortDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		now := rng.Float64() * 100
		slots := 1 + rng.Intn(8)
		// nrun < slots with a backlog exercises the now-padded branch
		// (a booting/off node's leftover queue); nrun == slots the
		// cached branch.
		nrun := rng.Intn(slots + 1)
		nq := rng.Intn(12)
		sed := waitSED(t, rng, slots, nrun, nq, now)
		for probe := 0; probe < 3; probe++ {
			got := sed.waitEstimate(now)
			want := sortDrainWait(sed, now)
			if got != want {
				t.Fatalf("trial %d probe %d: waitEstimate %v != sort drain %v (slots=%d run=%d q=%d)",
					trial, probe, got, want, slots, nrun, nq)
			}
			now += rng.Float64() * 10 // later probe, same state: cache path
		}
		// Mutate the queue and probe again: the version bump must
		// invalidate the cache.
		sed.pushQueue(pendingTask{task: workload.Task{ID: 9999, Ops: 3e11}})
		if got, want := sed.waitEstimate(now), sortDrainWait(sed, now); got != want {
			t.Fatalf("trial %d after push: %v != %v", trial, got, want)
		}
	}
}

// TestWaitEstimateZeroAlloc: repeated probes — including cache misses
// after mutations — allocate nothing once the scratch heap has grown.
func TestWaitEstimateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sed := waitSED(t, rng, 4, 4, 10, 0)
	sed.waitEstimate(0) // warm the scratch buffer
	now := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		now += 0.25
		sed.waitEstimate(now) // cache hit
		sed.bumpWait()
		sed.waitEstimate(now) // full heap recompute
	})
	if allocs != 0 {
		t.Fatalf("waitEstimate allocated %.1f times per probe pair, want 0", allocs)
	}

	// Incremental push: with room in the queue arena, a push advances
	// the drained heap in place and the probe after it reads the root.
	sed.queue = append(make([]pendingTask, 0, sed.qlen()+128), sed.queued()...)
	sed.qhead = 0
	sed.waitEstimate(now)
	drains := sed.drains
	allocs = testing.AllocsPerRun(100, func() {
		sed.pushQueue(pendingTask{task: workload.Task{ID: 5000, Ops: 2e11}})
		now += 0.25
		sed.waitEstimate(now)
	})
	if allocs != 0 {
		t.Fatalf("push+probe allocated %.1f times per pair, want 0", allocs)
	}
	if sed.drains != drains {
		t.Fatalf("incremental pushes re-drained the queue %d times, want 0", sed.drains-drains)
	}
}

// freshWait is the cache-miss estimate: a copy of sed with the drained
// heap discarded, so waitEstimate re-drains the backlog from scratch
// without disturbing sed's own heap.
func freshWait(sed *sedState, now float64) float64 {
	c := *sed
	c.avail = nil
	c.availVer = 0
	return c.waitEstimate(now)
}

// scanNextQueued is the reference dequeue pick: a linear scan of the
// live backlog in insertion order for the first task no other precedes
// under the discipline (the head under FIFO), with every view read
// fresh. It serves only as an oracle for the discipline heap.
func scanNextQueued(r *Runner, s *sedState) int {
	next := -1
	var best sched.TaskView
	for i, p := range s.queued() {
		if p.removed {
			continue
		}
		if v := r.taskView(p.task); next < 0 || (s.order != nil && s.order.Less(v, best)) {
			next, best = i, v
		}
	}
	return next
}

// scanAheadOfAll is the reference urgent-arrival test: v precedes every
// live queued task under the discipline.
func scanAheadOfAll(r *Runner, s *sedState, v sched.TaskView) bool {
	for _, p := range s.queued() {
		if !p.removed && !s.order.Less(v, r.taskView(p.task)) {
			return false
		}
	}
	return true
}

// liveIndex returns the index into queued() of the k-th live entry.
func liveIndex(s *sedState, k int) int {
	for i, p := range s.queued() {
		if p.removed {
			continue
		}
		if k == 0 {
			return i
		}
		k--
	}
	panic("liveIndex past the backlog")
}

// tiedOrder ranks by deadline alone, deadline-free last: a strict weak
// order with large classes of incomparable tasks, which only the
// insertion-order tiebreak serves first-come first-served.
type tiedOrder struct{}

func (tiedOrder) Less(a, b sched.TaskView) bool {
	due := func(v sched.TaskView) float64 {
		if v.Deadline <= 0 {
			return math.Inf(1)
		}
		return v.Deadline
	}
	return due(a) < due(b)
}

// testOrders are the disciplines the oracles rotate through: FIFO
// without a discipline, the three bundled orders, and tiedOrder.
var testOrders = []sched.TaskOrder{nil, sched.NewOrder(sched.EDF), sched.NewOrder(sched.ValueDensityOrder),
	sched.NewOrder(sched.FIFO), tiedOrder{}}

// tieHeavyTask returns a task whose view ties with many others: few
// distinct deadlines (including none), values and sizes, and the
// shared submit time now.
func tieHeavyTask(rng *rand.Rand, id int, now, ops float64) workload.Task {
	t := workload.Task{ID: id, Ops: ops, Submit: now, Value: float64(rng.Intn(3))}
	if k := rng.Intn(4); k > 0 {
		t.Deadline = now + 100*float64(k)
	}
	return t
}

// checkDiscipline compares sed's discipline heap with the linear-scan
// oracles: one heap entry per live task, the same dequeue pick, and the
// same urgent-arrival "ahead of all" answer for probe.
func checkDiscipline(t *testing.T, r *Runner, s *sedState, probe sched.TaskView) {
	t.Helper()
	if s.order == nil {
		return
	}
	if len(s.disc) != s.qlen() {
		t.Fatalf("sed %d: %d heap entries for %d queued tasks", s.idx, len(s.disc), s.qlen())
	}
	if s.qlen() > 0 {
		if got, want := s.nextQueued(), scanNextQueued(r, s); got != want {
			t.Fatalf("sed %d (%T): heap picks queue index %d (task %d), scan picks %d (task %d)",
				s.idx, s.order, got, s.queued()[got].task.ID, want, s.queued()[want].task.ID)
		}
	}
	if got, want := s.aheadOfAll(probe), scanAheadOfAll(r, s, probe); got != want {
		t.Fatalf("sed %d (%s): ahead of all %v, scan says %v", s.idx, s.order, got, want)
	}
}

// TestDisciplineHeapMatchesScan drives one SED's backlog hundreds deep
// under every discipline in testOrders — tie-heavy pushes in bursts,
// dequeues of the heap's pick and, in half the runs, out-of-discipline
// removals, so tombstones pile up until compaction renumbers the heap
// (and under the explicit FIFO order, which always picks the head, the
// arena compacts a dead prefix alone) — and after every mutation checks
// the heap against the linear-scan oracles and the wait estimate
// against sortDrainWait.
func TestDisciplineHeapMatchesScan(t *testing.T) {
	prefix, tombstones := 0, 0
	for _, order := range testOrders[1:] {
		for _, stray := range []bool{false, true} {
			rng := rand.New(rand.NewSource(3))
			r := &Runner{}
			sed := waitSED(t, rng, 4, 4, 0, 0)
			sed.order = order
			id := 0
			for step := 0; step < 2000; step++ {
				arena, dead := len(sed.queue), sed.dead
				switch k := rng.Intn(10); {
				case k < 4 || sed.qlen() < 2:
					for n := 1 + rng.Intn(4); n > 0; n-- {
						id++
						r.enqueue(sed, pendingTask{task: tieHeavyTask(rng, id, float64(step/8), float64(1+rng.Intn(2))*1e11)})
					}
				case k < 9 || !stray:
					sed.removeQueued(sed.nextQueued())
				default:
					sed.removeQueued(liveIndex(sed, rng.Intn(sed.qlen())))
				}
				if sed.qlen() > 0 && len(sed.queue) < arena {
					if dead > 0 {
						tombstones++
					} else {
						prefix++
					}
				}
				checkDiscipline(t, r, sed, r.taskView(tieHeavyTask(rng, id+1, float64(step/8), 1e11)))
				if got, want := sed.waitEstimate(0), sortDrainWait(sed, 0); got != want {
					t.Fatalf("%T step %d: estimate %v != sort drain %v", order, step, got, want)
				}
			}
		}
	}
	t.Logf("compactions: %d of a dead prefix, %d with tombstones", prefix, tombstones)
	if prefix == 0 || tombstones == 0 {
		t.Fatalf("compactions: %d of a dead prefix, %d with tombstones; want both", prefix, tombstones)
	}
}

// TestWaitEstimateIncrementalOracle drives a real runner through random
// mutation sequences — pushes (bursts of equal-size tasks, so several
// finishes share an instant), finish→head refills (under FIFO, and
// under a discipline whose top is the head), non-head removals,
// preemptions, crashes, queue clears, power toggles, starts under
// contention or exec jitter, finish hooks that mutate or probe the SED,
// and a queue discipline rotating with the seed over testOrders on
// tie-heavy tasks — and after every step checks each SED's kept-heap
// estimate against a fresh drain and sortDrainWait, bit for bit, and
// its discipline heap against the linear-scan oracles.
func TestWaitEstimateIncrementalOracle(t *testing.T) {
	hits, probes, discKeeps := 0, 0, 0
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		order := testOrders[seed%int64(len(testOrders))]
		var r *Runner
		nextID := 1
		newTask := func(now float64, ops float64) pendingTask {
			p := pendingTask{task: workload.Task{ID: nextID, Ops: ops, Submit: now}}
			if order != nil {
				p.task = tieHeavyTask(rng, nextID, now, ops)
			}
			nextID++
			return p
		}
		// A finish hook that sometimes touches the finishing SED before
		// its refill: a padded probe, a push, or starting the tail.
		hook := &HookModule{OnFinishFunc: func(rec TaskRecord) {
			now := rec.Finish
			sed := r.seds[r.cfg.Platform.Find(rec.Server)]
			switch rng.Intn(8) {
			case 0:
				sed.waitEstimate(now)
			case 1:
				r.enqueue(sed, newTask(now, 2e11))
			case 2:
				if n := sed.qlen(); sed.freeSlots() > 0 && n > 1 {
					r.startTask(now, sed, sed.removeQueued(liveIndex(sed, n-1)))
				}
			}
		}}
		var err error
		r, err = NewRunner(Config{
			Platform:     cluster.MustPlatform(cluster.NewNodes("taurus", 2)),
			Policy:       sched.New(sched.Random),
			Tasks:        tasks(1, 1e11, 1),
			SlotsPerNode: 1 + rng.Intn(4),
			Seed:         seed,
			Modules:      []Module{&PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: 0.5}}, hook},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range r.seds {
			s.order = order
		}
		// fire steps to the next event and counts the finishes under a
		// discipline whose refill kept the drained heap: exactly the
		// finish, removal and start bumps, with the heap exact on both
		// sides.
		wasDrained := make([]bool, len(r.seds))
		mutVer := make([]uint64, len(r.seds))
		var clock float64
		fire := func() {
			for i, s := range r.seds {
				wasDrained[i], mutVer[i] = s.drained(), s.mutVer
			}
			if r.live() {
				r.step()
			}
			clock = r.q.Now()
			for i, s := range r.seds {
				if s.order != nil && wasDrained[i] && s.drained() && s.mutVer == mutVer[i]+3 {
					discKeeps++
				}
			}
		}
		submit := func(now float64, sed *sedState, ops float64) {
			p := newTask(now, ops)
			if sed.freeSlots() > 0 {
				r.startTask(now, sed, p)
			} else {
				r.enqueue(sed, p)
			}
		}
		for step := 0; step < 400; step++ {
			now := clock
			sed := r.seds[rng.Intn(len(r.seds))]
			var op string
			switch k := rng.Intn(20); {
			case k < 6:
				op = "push burst"
				ops := float64(1+rng.Intn(3)) * 1e11
				for n := 1 + rng.Intn(4); n > 0; n-- {
					submit(now, sed, ops)
				}
				if rng.Intn(2) == 0 {
					// Finish with no probe since the pushes: the SED's
					// heap is stale, not drained, at the refill.
					fire()
				}
			case k < 7:
				op = "push odd size"
				submit(now, sed, (1+rng.Float64()*9)*1e11)
			case k < 13:
				op = "fire next events"
				for n := 1 + rng.Intn(3); n > 0; n-- {
					fire()
				}
			case k < 14:
				op = "remove non-head"
				if n := sed.qlen(); n > 1 {
					sed.removeQueued(liveIndex(sed, 1+rng.Intn(n-1)))
				}
			case k < 15:
				op = "preempt"
				if len(sed.running) > 0 {
					rts := slices.Clone(sed.running)
					slices.SortFunc(rts, func(a, b *runningTask) int { return a.task.ID - b.task.ID })
					r.preempt(now, sed, rts[rng.Intn(len(rts))])
					if rng.Intn(2) == 0 {
						r.drainQueue(now, sed)
					}
				}
			case k < 16:
				op = "clear queue"
				sed.clearQueue()
			case k < 17:
				op = "crash"
				if sed.node.State() == power.On {
					r.onCrash(now, sed)
				}
			case k < 19:
				op = "power toggle"
				switch sed.node.State() {
				case power.On:
					if len(sed.running) == 0 {
						if err := sed.node.PowerOff(now); err != nil {
							t.Fatal(err)
						}
					}
				case power.Off:
					if _, err := sed.node.PowerOn(now); err != nil {
						t.Fatal(err)
					}
					if err := sed.node.BootDone(now); err != nil {
						t.Fatal(err)
					}
					sed.failed, sed.candidate = false, true
					r.drainQueue(now, sed)
				}
			default:
				op = "contention/jitter toggle"
				r.cfg.Contention, r.cfg.ExecJitter = 0, 0
				if rng.Intn(2) == 0 {
					r.cfg.Contention = 0.3
				}
				if rng.Intn(2) == 0 {
					r.cfg.ExecJitter = 0.2
				}
			}
			now = clock
			probe := r.taskView(tieHeavyTask(rng, nextID, now, 2e11))
			for _, s := range r.seds {
				checkDiscipline(t, r, s, probe)
				if len(s.running) == s.slots && s.qlen() > 0 {
					probes++
				}
				if s.drained() {
					hits++
					if len(s.running) != s.slots {
						t.Fatalf("seed %d step %d (%s) sed %d: heap kept with %d of %d slots running",
							seed, step, op, s.idx, len(s.running), s.slots)
					}
				}
				got := s.waitEstimate(now)
				if want := freshWait(s, now); got != want {
					t.Fatalf("seed %d step %d (%s) sed %d: kept estimate %v != fresh drain %v (run=%d q=%d slots=%d)",
						seed, step, op, s.idx, got, want, len(s.running), s.qlen(), s.slots)
				}
				if want := sortDrainWait(s, now); got != want {
					t.Fatalf("seed %d step %d (%s) sed %d: estimate %v != sort drain %v", seed, step, op, s.idx, got, want)
				}
			}
		}
	}
	// The oracle is only meaningful if the kept heap is actually
	// exercised: most probes of a full, backlogged SED must read it
	// rather than re-drain.
	// Under a discipline, the refills that serve the insertion-order
	// head must keep it too, so the oracle checks that rule as well.
	t.Logf("%d of %d probes of a full, backlogged SED read a kept heap; %d disciplined refills kept it",
		hits, probes, discKeeps)
	if hits*2 < probes {
		t.Fatalf("only %d of %d probes of a full, backlogged SED read a kept heap", hits, probes)
	}
	if discKeeps == 0 {
		t.Fatal("no finish under a queue discipline kept the drained heap")
	}
}

// TestBacklogDrainsBounded is the complexity gate: on a FIFO backlog the
// kept heap absorbs every push and every finish→head refill, so each
// SED fully re-drains its queue about once per run — not once per task
// — and the count does not grow with the trace. Per-task size jitter
// changes the finish pattern but not the planned exec (still
// TaskSeconds), so it must stay bounded too.
func TestBacklogDrainsBounded(t *testing.T) {
	drainsAt := func(n int, jitter bool) (drains, seds int) {
		ts, err := workload.BurstThenRate{Total: n, Burst: 2048, Rate: 64, Ops: 9e11}.Tasks()
		if err != nil {
			t.Fatal(err)
		}
		if jitter {
			rng := rand.New(rand.NewSource(5))
			for i := range ts {
				ts[i].Ops *= 0.8 + 0.4*rng.Float64()
			}
		}
		r, err := NewRunner(Config{
			Platform: cluster.PaperPlatform(),
			Policy:   sched.New(sched.GreenPerf),
			Tasks:    ts,
			Explore:  true,
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		for _, sed := range r.seds {
			drains += sed.drains
		}
		return drains, len(r.seds)
	}
	for _, jitter := range []bool{false, true} {
		small, seds := drainsAt(10_000, jitter)
		large, _ := drainsAt(40_000, jitter)
		t.Logf("jitter=%v: %d full drains at 10k tasks, %d at 40k (%d SEDs)", jitter, small, large, seds)
		if small > seds+4 || large != small {
			t.Fatalf("jitter=%v: %d full drains at 10k tasks and %d at 40k, want the same count ≤ %d SEDs + 4",
				jitter, small, large, seds)
		}
	}
}

// countingOrder counts the Less calls a queue discipline answers.
type countingOrder struct {
	sched.TaskOrder
	calls int
}

func (o *countingOrder) Less(a, b sched.TaskView) bool {
	o.calls++
	return o.TaskOrder.Less(a, b)
}

// runDisciplineTrace runs a sim-stack-shaped trace of n tasks — a
// burst, then four times what the paper platform clears, one task in
// five interactive with a two-minute deadline, queued under order with
// preemption on — and returns the finished runner and the deepest
// per-SED backlog seen at any arrival.
func runDisciplineTrace(t *testing.T, n int, order sched.TaskOrder) (r *Runner, peak int) {
	t.Helper()
	ts, err := workload.BurstThenRate{Total: n, Burst: 512, Rate: 4, Ops: 9e11, Class: sla.ClassBatch}.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := range ts {
		if rng.Float64() < 0.2 {
			ts[i].Class = sla.ClassInteractive
			ts[i].Ops /= 10
			ts[i].Deadline = ts[i].Submit + 120
		}
	}
	depth := &HookModule{OnArrivalFunc: func(float64, *workload.Task) {
		for _, sed := range r.seds {
			peak = max(peak, sed.qlen())
		}
	}}
	r, err = NewRunner(Config{
		Platform: cluster.PaperPlatform(),
		Policy:   sched.New(sched.GreenPerf),
		Tasks:    ts,
		Explore:  true,
		Seed:     1,
		Modules: []Module{
			&SLAModule{Config: &sla.Config{Admission: &sla.Admission{Margin: 1}, Order: order, UrgentBypass: true}, WrapDeadline: true},
			&PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: 0.1}},
			depth,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	return r, peak
}

// TestDisciplineDequeueBounded is the complexity gate for disciplined
// queues: on runDisciplineTrace under EDF the discipline is consulted
// O(log queue) times per task, not once per queued task, so Less calls
// per task stay within a small multiple of log2 of the deepest per-SED
// backlog and barely grow when the trace — and with it every queue —
// quadruples.
func TestDisciplineDequeueBounded(t *testing.T) {
	lessPerTask := func(n int) (perTask float64, peak int) {
		order := &countingOrder{TaskOrder: sched.NewOrder(sched.EDF)}
		_, peak = runDisciplineTrace(t, n, order)
		return float64(order.calls) / float64(n), peak
	}
	small, peakSmall := lessPerTask(5_000)
	large, peakLarge := lessPerTask(20_000)
	t.Logf("Less calls per task: %.1f at 5k tasks (peak SED queue %d), %.1f at 20k (peak %d)", small, peakSmall, large, peakLarge)
	const c = 3
	for _, m := range []struct {
		perTask float64
		peak    int
	}{{small, peakSmall}, {large, peakLarge}} {
		if bound := c * math.Log2(float64(m.peak)); m.perTask > bound {
			t.Errorf("%.1f Less calls per task at a peak SED queue of %d, want ≤ %d·log2(peak) = %.1f", m.perTask, m.peak, c, bound)
		}
	}
	if large >= 1.3*small {
		t.Errorf("Less calls per task grew %.2f× from 5k to 20k tasks, want < 1.3×", large/small)
	}
}

// TestDisciplineDrainsBounded is the re-drain gate for disciplined
// queues: on runDisciplineTrace under EDF, a finish whose refill serves
// the insertion-order head keeps the drained heap, as under FIFO, so
// only the refills that serve a task behind the head (and preemptions)
// re-drain the backlog. The 20k-task trace re-drains 5,211 times; with
// the heap kept only under FIFO it took 9,545.
func TestDisciplineDrainsBounded(t *testing.T) {
	const n, bound = 20_000, 6_000
	r, _ := runDisciplineTrace(t, n, sched.NewOrder(sched.EDF))
	drains := 0
	for _, sed := range r.seds {
		drains += sed.drains
	}
	t.Logf("%d full drains over %d tasks", drains, n)
	if drains > bound {
		t.Fatalf("%d full drains over %d tasks, want ≤ %d", drains, n, bound)
	}
}
