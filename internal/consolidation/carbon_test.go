package consolidation

import (
	"testing"

	"greensched/internal/carbon"
	"greensched/internal/cluster"
	"greensched/internal/power"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/workload"
)

func twoSiteProfile() *carbon.Profile {
	p := carbon.MustProfile(carbon.SiteProfile{Site: "dirty", Signal: carbon.Constant{G: 600}})
	if err := p.SetCluster("green", carbon.SiteProfile{Site: "clean", Signal: carbon.Constant{G: 50}}); err != nil {
		panic(err)
	}
	return p
}

func newCarbonController(p *carbon.Profile) *CarbonController {
	return &CarbonController{
		Profile:     p,
		CleanG:      200,
		DirtyG:      500,
		IdleTimeout: 600,
		MinOn:       1,
		MaxDeferSec: 3600,
	}
}

func TestCarbonControllerValidate(t *testing.T) {
	if err := newCarbonController(twoSiteProfile()).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*CarbonController{
		{CleanG: 100, DirtyG: 500, IdleTimeout: 1, MinOn: 1, MaxDeferSec: 1}, // no profile
		{Profile: twoSiteProfile(), CleanG: 500, DirtyG: 100, IdleTimeout: 1, MinOn: 1, MaxDeferSec: 1},
		{Profile: twoSiteProfile(), CleanG: 100, DirtyG: 500, IdleTimeout: 0, MinOn: 1, MaxDeferSec: 1},
		{Profile: twoSiteProfile(), CleanG: 100, DirtyG: 500, IdleTimeout: 1, MinOn: -1, MaxDeferSec: 1},
		{Profile: twoSiteProfile(), CleanG: 100, DirtyG: 500, IdleTimeout: 1, MinOn: 1, MaxDeferSec: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d must be rejected", i)
		}
	}
}

func TestCarbonControllerClosesWindowAndDefers(t *testing.T) {
	c := newCarbonController(twoSiteProfile())
	ctl := &fakeControl{
		nodes: []sim.NodeView{
			{Name: "d0", Cluster: "coal", State: power.On, Slots: 2, Running: 2, Candidate: true},
			{Name: "d1", Cluster: "coal", State: power.Off, Slots: 2},
		},
		unplaced: 4,
	}
	// Dirty period: candidacy revoked, no wake — the backlog defers.
	c.Tick(0, ctl)
	if len(ctl.ons) != 0 {
		t.Fatalf("dirty-period backlog woke %v", ctl.ons)
	}
	if ctl.nodes[0].Candidate {
		t.Error("window must close: d0 still a candidate")
	}
	// Still deferring one tick before the bound.
	c.Tick(c.MaxDeferSec-1, ctl)
	if len(ctl.ons) != 0 {
		t.Fatalf("backlog released early: %v", ctl.ons)
	}
	// Bound reached: the forced release re-opens candidacy and wakes
	// the off node.
	c.Tick(c.MaxDeferSec, ctl)
	if len(ctl.ons) != 1 || ctl.ons[0] != "d1" {
		t.Fatalf("forced release woke %v, want [d1]", ctl.ons)
	}
	if !ctl.nodes[0].Candidate || !ctl.nodes[1].Candidate {
		t.Error("forced release must restore candidacy")
	}
}

func TestCarbonControllerWakesCleanestSiteFirst(t *testing.T) {
	c := newCarbonController(twoSiteProfile())
	ctl := &fakeControl{
		nodes: []sim.NodeView{
			{Name: "d0", Cluster: "coal", State: power.On, Slots: 2, Running: 2, Candidate: true},
			{Name: "d1", Cluster: "coal", State: power.Off, Slots: 4},
			{Name: "g0", Cluster: "green", State: power.Off, Slots: 2},
			{Name: "g1", Cluster: "green", State: power.Off, Slots: 2},
		},
		unplaced: 3,
	}
	c.Tick(0, ctl)
	// Need 3 slots: both green nodes (2+2) cover it; the dirty d1
	// must stay off even though it alone has 4 slots.
	if len(ctl.ons) != 2 || ctl.ons[0] != "g0" || ctl.ons[1] != "g1" {
		t.Fatalf("woke %v, want the clean-site nodes [g0 g1]", ctl.ons)
	}
	// The clean site's window is open, the dirty site's closed.
	for _, n := range ctl.nodes {
		want := n.Cluster == "green"
		if n.Candidate != want {
			t.Errorf("%s candidacy %v, want %v", n.Name, n.Candidate, want)
		}
	}
}

// TestCarbonControllerQueuedBacklogTriggersNoBoots: queued work never
// migrates (the SED keeps its problem), so a backlog that exists only
// inside SED queues must not boot nodes — they could never take the
// work and would only burn idle energy.
func TestCarbonControllerQueuedBacklogTriggersNoBoots(t *testing.T) {
	c := newCarbonController(twoSiteProfile())
	ctl := &fakeControl{
		nodes: []sim.NodeView{
			// Clean site (window open): one saturated node with a deep
			// queue, one node powered off.
			{Name: "g0", Cluster: "green", State: power.On, Slots: 2, Running: 2, Queued: 5, Candidate: true},
			{Name: "g1", Cluster: "green", State: power.Off, Slots: 2},
		},
		unplaced: 0,
	}
	c.Tick(0, ctl)
	if len(ctl.ons) != 0 {
		t.Fatalf("queued-only backlog booted %v; queued work cannot migrate there", ctl.ons)
	}
	// Genuinely unplaced work still wakes capacity.
	ctl.unplaced = 1
	c.Tick(60, ctl)
	if len(ctl.ons) != 1 || ctl.ons[0] != "g1" {
		t.Fatalf("unplaced backlog woke %v, want [g1]", ctl.ons)
	}
}

// TestCarbonControllerPreemptsInsteadOfExpressBoot: with PreemptBatch
// on, deadline work stuck behind a full node's slots is rescued by
// checkpointing the cheap batch victim in place — no express boot.
func TestCarbonControllerPreemptsInsteadOfExpressBoot(t *testing.T) {
	c := newCarbonController(twoSiteProfile())
	c.DeadlineSlackSec = 300
	c.PreemptBatch = true
	slack := 100.0
	ctl := &fakeControl{
		nodes: []sim.NodeView{
			{Name: "g0", Cluster: "green", State: power.On, Slots: 1, Running: 1, Queued: 1,
				Candidate: true, TaskW: 10, BootSec: 120, BootW: 170},
			{Name: "g1", Cluster: "green", State: power.Off, Slots: 1, BootSec: 120, BootW: 170},
		},
		atRisk: map[string]bool{"g0": true},
		running: map[string][]sim.RunningView{
			"g0": {{TaskID: 7, Class: "batch", ValueUSD: 0.05, Ops: 1e12, RemainingSec: 500, RedoSec: 20}},
		},
		pendingSlack: &slack,
	}
	c.Tick(0, ctl)
	// Redo cost 20 s × 10 W = 200 J ≪ one 120 s × 170 W boot: preempt.
	if len(ctl.preempts) != 1 || ctl.preempts[0] != "g0/7" {
		t.Fatalf("preempts %v, want [g0/7]", ctl.preempts)
	}
	if len(ctl.ons) != 0 {
		t.Fatalf("express-booted %v although preemption reclaimed a slot", ctl.ons)
	}
}

func TestCarbonControllerShutdownWindows(t *testing.T) {
	c := newCarbonController(twoSiteProfile())
	ctl := &fakeControl{
		nodes: []sim.NodeView{
			{Name: "d0", Cluster: "coal", State: power.On, Slots: 2, Candidate: true, Idle: 5},
			{Name: "g0", Cluster: "green", State: power.On, Slots: 2, Candidate: true, Idle: 5},
			{Name: "g1", Cluster: "green", State: power.On, Slots: 2, Candidate: true, Idle: 700},
		},
	}
	c.Tick(0, ctl)
	// d0 idles on a 600 g grid → immediate shutdown; g0 idles on a
	// clean grid below the timeout → stays; g1 exceeded the timeout →
	// down, but MinOn=1 keeps the last node powered.
	if len(ctl.offs) != 2 || ctl.offs[0] != "d0" || ctl.offs[1] != "g1" {
		t.Fatalf("shut down %v, want [d0 g1]", ctl.offs)
	}
	for _, n := range ctl.nodes {
		if n.Name == "g0" && n.State != power.On {
			t.Error("g0 must survive as the MinOn floor")
		}
	}
}

// TestCarbonControllerEndToEnd runs the controller inside the real
// simulator on a diurnal grid: a burst submitted in the dirty evening
// must wait for the clean midday window and still complete in full.
func TestCarbonControllerEndToEnd(t *testing.T) {
	d := carbon.Diurnal{MeanG: 300, AmplitudeG: 250, CleanHour: 13}
	profile := carbon.MustProfile(carbon.SiteProfile{Site: "solar", Signal: d})
	c := &CarbonController{
		Profile:     profile,
		CleanG:      150,
		DirtyG:      450,
		IdleTimeout: 1200,
		MinOn:       1,
		MaxDeferSec: 24 * 3600,
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Burst at 20:00 (intensity ≈ 540: dirty, window closed).
	burst, err := workload.BurstThenRate{Total: 60, Burst: 60, Ops: 4.5e11}.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Platform: cluster.MustPlatform(cluster.NewNodes("taurus", 4)),
		Policy:   sched.New(sched.Carbon),
		Tasks:    workload.Shift(burst, 20*3600),
		Explore:  true,
		Seed:     1,
		Modules: []sim.Module{
			&sim.CarbonModule{Profile: profile},
			&Module{Controller: c},
			&sim.RecordModule{},
		},
		ControlEvery: 300,
		RetryEvery:   60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 60 {
		t.Fatalf("completed %d of 60", res.Completed)
	}
	if res.Boots == 0 {
		t.Error("controller never booted capacity for the deferred burst")
	}
	// Every task must have started inside the clean window (the
	// intensity at its start below the threshold, with a little slack
	// for the tick cadence), i.e. deferred ≈13.5 h into next midday.
	for _, rec := range res.Records {
		if g := d.IntensityAt(rec.Start); g > c.CleanG*1.2 {
			t.Fatalf("task %d started at t=%.0f with intensity %.0f g/kWh (window closed)",
				rec.ID, rec.Start, g)
		}
	}
	if w := res.MeanWait(); w < 10*3600 {
		t.Errorf("mean wait %.0f s; the evening burst should defer into next midday", w)
	}
}
