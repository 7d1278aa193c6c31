package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"greensched/internal/cluster"
	"greensched/internal/power"
	"greensched/internal/provision"
	"greensched/internal/report"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/workload"
)

// AdaptiveConfig parameterizes the §IV-C reactivity experiment
// (Figure 9): the Table I platform under GreenPerf with static
// estimates, a planner resizing the candidate pool as the provisioning
// plan dictates, and a client tracking the capacity of that pool.
type AdaptiveConfig struct {
	// Store is the plan PaperPlanner reads; nil means PaperEventTimeline.
	Store *provision.Store

	TaskOps float64 // flops per request
	// HorizonMin is the experiment length in minutes (paper: 260).
	HorizonMin float64
	// SampleWindow is the energy-averaging window of Figure 9's
	// crosses in seconds ("an average value of energy consumption
	// measured during the previous 10 minutes"): a positive multiple of
	// the planner's check period, or 0 for the period itself.
	SampleWindow float64
	Seed         int64
}

// DefaultAdaptiveConfig returns the calibrated §IV-C setup.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{TaskOps: 1.8e12, Seed: 1, HorizonMin: 260}
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

// PaperEventTimeline builds the §IV-C provisioning plan:
//
//   - start: regular time (cost 1.0), in-range temperature
//   - Event 1 (scheduled):  cost 0.8 at t+60 min
//   - Event 2 (scheduled):  cost 0.5 at t+120 min
//   - Event 3 (unexpected): temperature rise just before t+160 min
//   - Event 4 (unexpected): temperature back in range before t+240 min
func PaperEventTimeline() *provision.Store {
	store := provision.NewStore()
	store.Put(provision.Record{Value: 0, Cost: 1.0, Temperature: 23})
	store.Put(provision.Record{Value: 60 * 60, Cost: 0.8, Temperature: 23})
	store.Put(provision.Record{Value: 120 * 60, Cost: 0.5, Temperature: 23})
	store.Put(provision.Record{Value: 160*60 - 50, Cost: 0.5, Temperature: 27, Unexpected: true})
	store.Put(provision.Record{Value: 240*60 - 50, Cost: 0.5, Temperature: 22, Unexpected: true})
	return store
}

// PaperPlanner builds the §IV-C planner: 12 nodes, 10-minute checks,
// 20-minute lookahead, progressive ramps, 2-node floor during heat
// events, starting from the regular-time pool of 4.
func PaperPlanner() *provision.Planner {
	p := provision.NewPlanner(12, 4)
	p.MinNodes = 2
	return p
}

// RunAdaptive runs Figure 9 on the simulator kernel, with PaperPlanner,
// the closed-loop client and the sampler as one module of the run.
func RunAdaptive(cfg AdaptiveConfig) (*AdaptiveResult, error) {
	return runAdaptive(cfg, PaperPlanner())
}

// runAdaptive is RunAdaptive under planner, which the run advances.
func runAdaptive(cfg AdaptiveConfig, planner *provision.Planner) (*AdaptiveResult, error) {
	if cfg.Store == nil {
		cfg.Store = PaperEventTimeline()
	}
	if cfg.SampleWindow == 0 {
		cfg.SampleWindow = planner.CheckPeriod
	}
	every := cfg.SampleWindow / planner.CheckPeriod
	switch err := planner.Validate(); {
	case err != nil:
		return nil, err
	case !(cfg.TaskOps > 0 && cfg.HorizonMin > 0) || math.IsInf(cfg.TaskOps+cfg.HorizonMin, 1):
		return nil, fmt.Errorf("experiments: adaptive run needs finite positive task ops and horizon")
	case every < 1 || every != math.Trunc(every):
		return nil, fmt.Errorf("experiments: sample window %v s is not a multiple of the %v s check period", cfg.SampleWindow, planner.CheckPeriod)
	}
	platform := cluster.PaperPlatform()
	m := &provisioner{
		cfg:     cfg,
		planner: planner,
		order:   append([]cluster.NodeSpec(nil), platform.Nodes...),
		every:   int(every),
		pool:    planner.Current(),
		ordered: make(map[string]float64),
	}
	sort.SliceStable(m.order, func(a, b int) bool {
		return m.order[a].GreenPerfStatic() < m.order[b].GreenPerfStatic()
	})
	res, err := sim.Run(sim.Config{
		Platform: platform,
		// "Preference_provider ... giving priority to energy-efficient
		// nodes"; static estimates, because the experiment is about
		// provisioning reactivity, not learning.
		Policy:       sched.New(sched.GreenPerf),
		Static:       true,
		Seed:         cfg.Seed,
		Modules:      []sim.Module{m},
		ControlEvery: planner.CheckPeriod,
	})
	if err != nil {
		return nil, err
	}
	m.res.EnergyJ, m.res.Completed, m.res.Boots = res.EnergyJ, res.Completed, res.Boots
	if m.drains > 0 {
		m.res.DrainLagS /= float64(m.drains)
	}
	return &m.res, nil
}

// provisioner is the §IV-C loop as one module of a kernel run. Every
// check period (the run's control tick) the planner resizes the
// candidate pool and Figure 9 samples the platform draw; as the run's
// Feeder it is the closed-loop client, and it powers drained
// non-candidates off.
type provisioner struct {
	sim.BaseModule
	cfg     AdaptiveConfig     // defaults resolved
	planner *provision.Planner // advanced by every tick
	order   []cluster.NodeSpec // by static GreenPerf, greenest first
	every   int                // control ticks per sample
	res     AdaptiveResult     // DrainLagS sums the drains until the run ends

	pool, fed, ticks, drains int // the candidates are order[:pool]
	lastE                    float64
	ordered                  map[string]float64 // node → when its shutdown was ordered
}

// OnTick implements sim.Module: one planner check, the pool change,
// the refill, and every SampleWindow a Figure 9 sample.
func (p *provisioner) OnTick(now float64, ctl sim.Control) {
	if now > p.cfg.HorizonMin*60 {
		return
	}
	d := p.planner.Check(now, p.cfg.Store)
	p.res.Decisions = append(p.res.Decisions, d)
	k := min(d.Pool, len(p.order))
	for rank, spec := range p.order {
		switch {
		case rank < k && rank >= p.pool:
			// A draining or booting node rejoins; an off one boots.
			delete(p.ordered, spec.Name)
			_ = ctl.SetCandidate(spec.Name, true)
			_ = ctl.PowerOn(spec.Name)
		case rank >= k && rank < p.pool:
			p.ordered[spec.Name] = now
			_ = ctl.SetCandidate(spec.Name, false)
		}
	}
	p.pool = k
	p.Feed(now, ctl)
	if p.ticks++; p.ticks%p.every == 0 {
		e, running := ctl.EnergyJ(), 0
		for _, n := range ctl.Nodes() {
			running += n.Running
		}
		p.res.Samples = append(p.res.Samples, AdaptiveSample{
			T: now, Candidates: p.pool, AvgW: (e - p.lastE) / p.cfg.SampleWindow, Running: running,
		})
		p.lastE = e
	}
}

// Feed implements sim.Feeder. It shuts every drained non-candidate
// down (tasks in progress complete first, and a node dropped from the
// pool while booting goes down once its boot completes), then — "after
// each request completion, the client is notified of the current
// amount of candidate nodes, and is free to adjust its request rate" —
// keeps exactly as many requests in flight as the candidate pool can
// execute, until the horizon.
func (p *provisioner) Feed(now float64, ctl sim.Control) {
	if p.fed == 0 {
		// Run start: the kernel starts every node on and elected, and
		// the pool starts at the planner's size with the rest off.
		for _, spec := range p.order[p.pool:] {
			_ = ctl.SetCandidate(spec.Name, false)
		}
	}
	inFlight, capacity := ctl.Unplaced(), 0
	for _, n := range ctl.Nodes() {
		inFlight += n.Running + n.Queued
		switch {
		case n.State != power.On:
		case n.Candidate:
			capacity += n.Slots
		case n.Running+n.Queued == 0 && ctl.PowerOff(n.Name) == nil:
			if at, ok := p.ordered[n.Name]; ok {
				p.res.DrainLagS += now - at
				p.drains++
				delete(p.ordered, n.Name)
			}
		}
	}
	for ; inFlight < capacity && now <= p.cfg.HorizonMin*60; inFlight++ {
		// RunAdaptive validated the task shape, so Submit cannot refuse.
		if err := ctl.Submit(workload.Task{ID: p.fed, Ops: p.cfg.TaskOps}); err != nil {
			panic(err)
		}
		p.fed++
	}
}

// Figure9 renders the candidates/power evolution.
func Figure9(res *AdaptiveResult) *report.TimeSeries {
	ts := &report.TimeSeries{Title: "Figure 9. Evolution of candidate nodes and power consumption"}
	for _, s := range res.Samples {
		ts.Add(s.T, float64(s.Candidates), s.AvgW)
	}
	return ts
}

// Figure8 renders the provisioning-plan XML sample corresponding to
// the §IV-C timeline at a given timestamp.
func Figure8(store *provision.Store, at int64) (string, error) {
	rec, ok := store.At(at)
	if !ok {
		return "", fmt.Errorf("experiments: no plan record at %d", at)
	}
	plan := &provision.Plan{Records: []provision.Record{rec}}
	data, err := plan.MarshalIndent()
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// RenderAdaptive writes Figure 8 (plan sample) and Figure 9 (the
// time series of res, from RunAdaptive) plus the reactivity summary.
func RenderAdaptive(res *AdaptiveResult, w io.Writer) error {
	sample, err := Figure8(PaperEventTimeline(), 60*60)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 8. Sample of the server status (provisioning plan record):\n%s\n\n", sample)
	if err := Figure9(res).Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w,
		"\ncompleted=%d tasks  energy=%.0f J  boots=%d  mean drain lag=%.0f s\n",
		res.Completed, res.EnergyJ, res.Boots, res.DrainLagS)
	return err
}
