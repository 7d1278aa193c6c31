package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"greensched/internal/cluster"
	"greensched/internal/estvec"
	"greensched/internal/power"
	"greensched/internal/provision"
	"greensched/internal/sched"
	"greensched/internal/simtime"
	"greensched/internal/workload"
)

// AdaptiveConfig parameterizes the §IV-C adaptive-provisioning
// experiment: a client submits "a continuous flow of requests
// intending to reach the capacity of the infrastructure" while the
// planner reacts to energy-related events by resizing the candidate
// pool; non-candidate nodes are drained and powered off.
type AdaptiveConfig struct {
	Platform *cluster.Platform
	Planner  *provision.Planner
	Store    *provision.Store

	// Policy places tasks among candidate nodes (the experiment uses
	// GreenPerf — "Preference_provider ... giving priority to
	// energy-efficient nodes").
	Policy sched.Policy

	TaskOps float64 // flops per request
	Horizon float64 // experiment length in seconds (260 min in Fig. 9)

	// SampleWindow is the energy-averaging window of Figure 9's
	// crosses ("an average value of energy consumption measured
	// during the previous 10 minutes"). 0 means the planner period.
	SampleWindow float64

	Seed int64
}

// AdaptiveSample is one Figure 9 measurement point.
type AdaptiveSample struct {
	T          float64 // seconds
	Candidates int     // planner pool size (plain line, left axis)
	AvgW       float64 // mean platform draw over the previous window (crosses, right axis)
	Running    int     // tasks executing at the sample instant
}

// AdaptiveResult is the outcome of the adaptive run.
type AdaptiveResult struct {
	Samples   []AdaptiveSample
	Decisions []provision.Decision
	EnergyJ   power.Joules
	Completed int
	Boots     int
	// DrainLagS is the mean delay between a shutdown order and the
	// node actually powering off (tasks in progress are allowed to
	// complete, which Figure 9 shows as the delayed energy drop).
	DrainLagS float64
}

// adaptiveRunner holds the §IV-C experiment state.
type adaptiveRunner struct {
	cfg AdaptiveConfig
	eng *simtime.Engine
	rng *rand.Rand

	seds  []*sedState // in GreenPerf order: seds[0] is the greenest
	sel   *sched.Selector
	res   *AdaptiveResult
	pool  int // current candidate pool size
	tasks int // task ID counter

	drainOrdered map[int]float64 // sed index → time shutdown was ordered
	drainLags    []float64
	lastSampleE  power.Joules
}

// RunAdaptive executes the adaptive-provisioning scenario.
func RunAdaptive(cfg AdaptiveConfig) (*AdaptiveResult, error) {
	if cfg.Platform == nil || cfg.Planner == nil || cfg.Store == nil || cfg.Policy == nil {
		return nil, fmt.Errorf("sim: adaptive config needs platform, planner, store and policy")
	}
	if cfg.TaskOps <= 0 || cfg.Horizon <= 0 {
		return nil, fmt.Errorf("sim: adaptive config needs positive task ops and horizon")
	}
	if err := cfg.Planner.Validate(); err != nil {
		return nil, err
	}
	if cfg.SampleWindow <= 0 {
		cfg.SampleWindow = cfg.Planner.CheckPeriod
	}
	r := &adaptiveRunner{
		cfg:          cfg,
		eng:          simtime.NewEngine(),
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		res:          &AdaptiveResult{},
		pool:         cfg.Planner.Current(),
		drainOrdered: make(map[int]float64),
	}
	r.sel = &sched.Selector{Policy: cfg.Policy, QueueFactor: 1, Explore: false}

	// Order nodes by static GreenPerf: the pool always consists of
	// the most energy-efficient prefix.
	order := make([]int, len(cfg.Platform.Nodes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		na, nb := cfg.Platform.Nodes[order[a]], cfg.Platform.Nodes[order[b]]
		ga, gb := na.GreenPerfStatic(), nb.GreenPerfStatic()
		if ga != gb {
			return ga < gb
		}
		return na.Name < nb.Name
	})
	for rank, idx := range order {
		spec := cfg.Platform.Nodes[idx]
		meter := power.NewWattmeter(0, cfg.Seed+int64(idx)+1)
		sed := &sedState{
			idx:     rank,
			est:     power.NewEstimator(64),
			meter:   meter,
			slots:   spec.Cores,
			running: make(map[int]*runningTask),
		}
		if rank < r.pool {
			sed.node = cluster.NewNode(spec, 0, meter)
			sed.candidate = true
		} else {
			sed.node = cluster.NewNodeOff(spec, 0, meter)
			sed.candidate = false
		}
		// Static estimates: the §IV-C experiment is about
		// provisioning reactivity, not learning; seed from the
		// §IV-B-style initial benchmark.
		cal := cluster.BenchmarkNode(spec, 1e9, 0, nil)
		sed.static = &cal
		r.seds = append(r.seds, sed)
	}

	r.schedulePlannerTicks()
	r.scheduleSamples()
	r.submitToCapacity(0)

	budget := uint64(cfg.Horizon/cfg.Planner.CheckPeriod)*1<<16 + 1<<22
	if _, err := r.eng.Run(budget); err != nil {
		return nil, err
	}
	r.finalize()
	return r.res, nil
}

func (r *adaptiveRunner) schedulePlannerTicks() {
	period := r.cfg.Planner.CheckPeriod
	var tick func(now simtime.Time)
	tick = func(now simtime.Time) {
		if now.Seconds() > r.cfg.Horizon {
			return
		}
		d := r.cfg.Planner.Check(now.Seconds(), r.cfg.Store)
		r.res.Decisions = append(r.res.Decisions, d)
		r.applyPool(now.Seconds(), d.Pool)
		r.eng.After(period, "planner", tick)
	}
	r.eng.After(period, "planner", tick)
}

// applyPool grows or shrinks the candidate pool to size k.
func (r *adaptiveRunner) applyPool(now float64, k int) {
	if k > len(r.seds) {
		k = len(r.seds)
	}
	r.pool = k
	for rank, sed := range r.seds {
		want := rank < k
		switch {
		case want && !sed.candidate:
			sed.candidate = true
			delete(r.drainOrdered, rank)
			if sed.node.State() == power.Off {
				done, err := sed.node.PowerOn(now)
				if err == nil {
					r.res.Boots++
					rank := rank
					r.eng.At(simtime.Time(done), "boot-done", func(t simtime.Time) {
						r.onBootDone(t.Seconds(), r.seds[rank])
					})
				}
			}
		case !want && sed.candidate:
			sed.candidate = false
			r.drainOrdered[rank] = now
			r.tryPowerOff(now, sed)
		}
	}
	r.submitToCapacity(now)
}

func (r *adaptiveRunner) onBootDone(now float64, sed *sedState) {
	if sed.node.State() != power.Booting {
		return // shut down again while booting is not modelled; skip
	}
	if err := sed.node.BootDone(now); err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	// "After each request completion, the client is notified of the
	// current amount of candidate nodes, and is free to adjust its
	// request rate" — new capacity triggers new submissions.
	r.submitToCapacity(now)
}

// tryPowerOff shuts a drained non-candidate node down; tasks in
// progress are allowed to complete first.
func (r *adaptiveRunner) tryPowerOff(now float64, sed *sedState) {
	if sed.candidate || sed.node.State() != power.On {
		return
	}
	if len(sed.running) > 0 || sed.qlen() > 0 {
		return // drain continues; onFinish retries
	}
	if err := sed.node.PowerOff(now); err == nil {
		if ordered, ok := r.drainOrdered[sed.idx]; ok {
			r.drainLags = append(r.drainLags, now-ordered)
			delete(r.drainOrdered, sed.idx)
		}
	}
}

// capacity is the total slot count across candidate, powered-on nodes.
func (r *adaptiveRunner) capacity() int {
	total := 0
	for _, sed := range r.seds {
		if sed.candidate && sed.node.State() == power.On {
			total += sed.slots
		}
	}
	return total
}

func (r *adaptiveRunner) inFlight() int {
	total := 0
	for _, sed := range r.seds {
		total += len(sed.running) + sed.qlen()
	}
	return total
}

// submitToCapacity is the closed-loop client: it keeps exactly as many
// requests in flight as the candidate pool can execute.
func (r *adaptiveRunner) submitToCapacity(now float64) {
	if now > r.cfg.Horizon {
		return
	}
	for r.inFlight() < r.capacity() {
		list := make(estvec.List, 0, len(r.seds))
		for _, sed := range r.seds {
			list = append(list, sed.vector(now, r.rng))
		}
		chosen, err := r.sel.Select(list)
		if err != nil {
			return
		}
		sed := r.sedByName(chosen.Server)
		if sed == nil || sed.freeSlots() == 0 {
			return // only queueing left; the closed loop never queues
		}
		task := pendingTask{task: taskOf(r.tasks, r.cfg.TaskOps, now)}
		r.tasks++
		r.startAdaptiveTask(now, sed, task)
	}
}

func (r *adaptiveRunner) sedByName(name string) *sedState {
	for _, sed := range r.seds {
		if sed.node.Spec.Name == name {
			return sed
		}
	}
	return nil
}

func (r *adaptiveRunner) startAdaptiveTask(now float64, sed *sedState, p pendingTask) {
	if err := sed.node.StartTask(now); err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	exec := sed.node.Spec.TaskSeconds(p.task.Ops)
	rt := &runningTask{task: p.task, start: now}
	rt.finish = r.eng.After(exec, "finish", func(t simtime.Time) {
		r.onAdaptiveFinish(t.Seconds(), sed, rt)
	})
	sed.running[p.task.ID] = rt
	sed.bumpWait()
}

func (r *adaptiveRunner) onAdaptiveFinish(now float64, sed *sedState, rt *runningTask) {
	delete(sed.running, rt.task.ID)
	sed.bumpWait()
	if err := sed.node.FinishTask(now); err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	r.res.Completed++
	if !sed.candidate {
		r.tryPowerOff(now, sed)
	}
	r.submitToCapacity(now)
}

func (r *adaptiveRunner) scheduleSamples() {
	window := r.cfg.SampleWindow
	var sample func(now simtime.Time)
	sample = func(now simtime.Time) {
		total := power.Joules(0)
		running := 0
		for _, sed := range r.seds {
			sed.node.Settle(now.Seconds())
			total += sed.node.Energy()
			running += len(sed.running)
		}
		avgW := (total - r.lastSampleE) / window
		r.lastSampleE = total
		r.res.Samples = append(r.res.Samples, AdaptiveSample{
			T:          now.Seconds(),
			Candidates: r.pool,
			AvgW:       avgW,
			Running:    running,
		})
		if now.Seconds()+window <= r.cfg.Horizon {
			r.eng.After(window, "sample", sample)
		}
	}
	r.eng.After(window, "sample", sample)
}

func (r *adaptiveRunner) finalize() {
	// Tasks in flight at the horizon drain past it; settle at the
	// later of the two so energy accounting is complete.
	end := r.cfg.Horizon
	if now := r.eng.Now().Seconds(); now > end {
		end = now
	}
	for _, sed := range r.seds {
		sed.node.Settle(end)
		r.res.EnergyJ += sed.node.Energy()
	}
	if len(r.drainLags) > 0 {
		sum := 0.0
		for _, l := range r.drainLags {
			sum += l
		}
		r.res.DrainLagS = sum / float64(len(r.drainLags))
	}
}

func taskOf(id int, ops, submit float64) workload.Task {
	return workload.Task{ID: id, Ops: ops, Submit: submit}
}
