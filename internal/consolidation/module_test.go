package consolidation

import (
	"testing"

	"greensched/internal/cluster"
	"greensched/internal/power"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/workload"
)

func TestModuleInitValidatesController(t *testing.T) {
	if err := (&Module{}).Init(nil); err == nil {
		t.Error("nil controller accepted")
	}
	bad := &Module{Controller: &Controller{IdleTimeout: -1, MinOn: 1}}
	if err := bad.Init(nil); err == nil {
		t.Error("invalid controller accepted")
	}
	ok := &Module{Controller: &Controller{IdleTimeout: 10, MinOn: 1}}
	if err := ok.Init(nil); err != nil {
		t.Errorf("valid controller rejected: %v", err)
	}
}

func TestModuleTickDelegates(t *testing.T) {
	// A drained, long-idle node must be shut down through the module
	// path exactly as by calling the controller's Tick directly.
	ctl := &fakeControl{nodes: []sim.NodeView{
		{Name: "a", State: power.On, Slots: 2, Idle: 500, Candidate: true},
		{Name: "b", State: power.On, Slots: 2, Idle: 500, Candidate: true},
	}}
	m := &Module{Controller: &Controller{IdleTimeout: 300, MinOn: 1}}
	if err := m.Init(nil); err != nil {
		t.Fatal(err)
	}
	m.OnTick(1000, ctl)
	if len(ctl.offs) != 1 {
		t.Fatalf("module tick powered off %v, want exactly one node", ctl.offs)
	}
}

// tickModule mounts a bare tick function on a sim.BaseModule.
type tickModule struct {
	sim.BaseModule
	tick func(now float64, ctl sim.Control)
}

func (m tickModule) OnTick(now float64, ctl sim.Control) { m.tick(now, ctl) }

// TestModulePathMatchesHookModule runs the identical consolidation
// scenario once with the controller's Tick in a bare tick module and
// once as a Module and requires the byte-identical Result — the
// controller cannot tell which mount it runs on.
func TestModulePathMatchesHookModule(t *testing.T) {
	tasks, err := workload.BurstThenRate{Total: 30, Burst: 6, Rate: 0.02, Ops: 4e11}.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	platform := func() *cluster.Platform {
		return cluster.MustPlatform(cluster.NewNodes("taurus", 2), cluster.NewNodes("sagittaire", 2))
	}
	run := func(modular bool) *sim.Result {
		ctl := &Controller{IdleTimeout: 60, MinOn: 1}
		cfg := sim.Config{
			Platform:     platform(),
			Policy:       sched.New(sched.GreenPerf),
			Tasks:        tasks,
			Explore:      true,
			Seed:         11,
			ControlEvery: 30,
		}
		if modular {
			cfg.Modules = []sim.Module{&Module{Controller: ctl}}
		} else {
			cfg.Modules = []sim.Module{tickModule{tick: ctl.Tick}}
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hook, mod := run(false), run(true)
	if hook.EnergyJ != mod.EnergyJ || hook.Makespan != mod.Makespan ||
		hook.Boots != mod.Boots || hook.Shutdowns != mod.Shutdowns {
		t.Fatalf("module path diverged from hook module:\nhook:   E=%v makespan=%v boots=%d shutdowns=%d\nmodule: E=%v makespan=%v boots=%d shutdowns=%d",
			hook.EnergyJ, hook.Makespan, hook.Boots, hook.Shutdowns,
			mod.EnergyJ, mod.Makespan, mod.Boots, mod.Shutdowns)
	}
	if mod.Shutdowns == 0 {
		t.Error("scenario never exercised the controller (no shutdowns)")
	}
}
