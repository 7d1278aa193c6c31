package sim

import (
	"math/rand"
	"sort"
	"testing"

	"greensched/internal/cluster"
	"greensched/internal/power"
	"greensched/internal/sched"
	"greensched/internal/simtime"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// This file pins the wait estimate: the SED's drained slot-availability
// heap, kept across probes and advanced in place by pushes and FIFO
// refills, must return bit-identical floats to a fresh drain and to
// sortDrainWait on arbitrary SED states; the hot path must not
// allocate; and a backlogged run must re-drain each SED's queue a
// bounded number of times, not once per mutation.

// sortDrainWait is the reference wait estimate: the slot-availability
// times (finish times, padded with now for free slots) re-sorted after
// every drain step. It allocates per probe; it serves only as an oracle.
func sortDrainWait(s *sedState, now float64) float64 {
	if s.freeSlots() > 0 && s.qlen() == 0 {
		return 0
	}
	avail := make([]float64, 0, s.slots)
	for _, rt := range s.running {
		avail = append(avail, rt.finish.At.Seconds())
	}
	for len(avail) < s.slots {
		avail = append(avail, now)
	}
	sort.Float64s(avail)
	// Drain the queue ahead of the hypothetical new task.
	for _, p := range s.queued() {
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
func waitSED(t *testing.T, eng *simtime.Engine, rng *rand.Rand, slots, nrun, nq int, now float64) *sedState {
	t.Helper()
	spec := smallPlatform().Nodes[0]
	sed := &sedState{
		node:    cluster.NewNode(spec, 0, power.NewWattmeter(0, 1)),
		est:     power.NewEstimator(8),
		slots:   slots,
		running: make(map[int]*runningTask),
	}
	for i := 0; i < nrun; i++ {
		if err := sed.node.StartTask(now); err != nil {
			t.Fatal(err)
		}
		rt := &runningTask{start: now}
		rt.finish = eng.At(simtime.Time(now+1+rng.Float64()*500), "finish", func(simtime.Time) {})
		sed.running[i] = rt
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
		eng := simtime.NewEngine()
		now := rng.Float64() * 100
		slots := 1 + rng.Intn(8)
		// nrun < slots with a backlog exercises the now-padded branch
		// (a booting/off node's leftover queue); nrun == slots the
		// cached branch.
		nrun := rng.Intn(slots + 1)
		nq := rng.Intn(12)
		sed := waitSED(t, eng, rng, slots, nrun, nq, now)
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
	eng := simtime.NewEngine()
	sed := waitSED(t, eng, rng, 4, 4, 10, 0)
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

// TestWaitEstimateIncrementalOracle drives a real runner through random
// mutation sequences — pushes (bursts of equal-size tasks, so several
// finishes share an instant), FIFO finish→head refills, non-head
// removals, preemptions, crashes, queue clears, power toggles, starts
// under contention or exec jitter, finish hooks that mutate or probe
// the SED, and (on every other seed) an EDF queue discipline — and
// after every step checks each SED's kept-heap estimate against a
// fresh drain and sortDrainWait, bit for bit.
func TestWaitEstimateIncrementalOracle(t *testing.T) {
	hits, probes := 0, 0
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r *Runner
		nextID := 1
		newTask := func(now float64, ops float64) pendingTask {
			p := pendingTask{task: workload.Task{ID: nextID, Ops: ops, Submit: now}}
			if r.order != nil && rng.Intn(2) == 0 {
				p.task.Deadline = now + rng.Float64()*1e4
			}
			nextID++
			return p
		}
		// A finish hook that sometimes touches the finishing SED before
		// its refill: a padded probe, a push, or starting the tail.
		hook := &HookModule{OnFinishFunc: func(rec TaskRecord) {
			now := r.eng.Now().Seconds()
			sed := r.seds[r.cfg.Platform.Find(rec.Server)]
			switch rng.Intn(8) {
			case 0:
				sed.waitEstimate(now)
			case 1:
				sed.pushQueue(newTask(now, 2e11))
			case 2:
				if n := sed.qlen(); sed.freeSlots() > 0 && n > 1 {
					r.startTask(now, sed, sed.removeQueued(n-1))
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
		if seed%2 == 0 {
			r.order = sched.NewOrder(sched.EDF)
		}
		submit := func(now float64, sed *sedState, ops float64) {
			p := newTask(now, ops)
			if sed.freeSlots() > 0 {
				r.startTask(now, sed, p)
			} else {
				sed.pushQueue(p)
			}
		}
		for step := 0; step < 400; step++ {
			now := r.eng.Now().Seconds()
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
					r.eng.Step()
				}
			case k < 7:
				op = "push odd size"
				submit(now, sed, (1+rng.Float64()*9)*1e11)
			case k < 13:
				op = "fire next events"
				for n := 1 + rng.Intn(3); n > 0; n-- {
					r.eng.Step()
				}
			case k < 14:
				op = "remove non-head"
				if n := sed.qlen(); n > 1 {
					sed.removeQueued(1 + rng.Intn(n-1))
				}
			case k < 15:
				op = "preempt"
				if len(sed.running) > 0 {
					ids := make([]int, 0, len(sed.running))
					for id := range sed.running {
						ids = append(ids, id)
					}
					sort.Ints(ids)
					r.preempt(now, sed, sed.running[ids[rng.Intn(len(ids))]])
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
			now = r.eng.Now().Seconds()
			for _, s := range r.seds {
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
	t.Logf("%d of %d probes of a full, backlogged SED read a kept heap", hits, probes)
	if hits*2 < probes {
		t.Fatalf("only %d of %d probes of a full, backlogged SED read a kept heap", hits, probes)
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
