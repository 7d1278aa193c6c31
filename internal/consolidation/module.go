package consolidation

import (
	"fmt"

	"greensched/internal/sim"
)

// Ticker is the controller surface a Module drives: both Controller
// (idle shutdown) and CarbonController (candidacy windows) satisfy it.
type Ticker interface {
	Tick(now float64, ctl sim.Control)
}

// Module mounts a power-management controller on a scenario's module
// stack: the controller's Tick runs at every Config.ControlEvery
// cadence alongside whatever other modules the scenario composes
// (carbon accounting, SLA machinery, preemption, budget).
//
//	sim.WithModules(
//		&sim.CarbonModule{Profile: profile},
//		&consolidation.Module{Controller: &consolidation.CarbonController{…}},
//	)
//
// A controller instance carries run state (the carbon controller's
// deferral clock); give every run its own.
type Module struct {
	sim.BaseModule
	Controller Ticker
}

// Init implements sim.Module: it validates the controller when it
// exposes a Validate method (both shipped controllers do).
func (m *Module) Init(*sim.Runner) error {
	if m.Controller == nil {
		return fmt.Errorf("consolidation: module needs a controller")
	}
	if v, ok := m.Controller.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

// OnTick implements sim.Module.
func (m *Module) OnTick(now float64, ctl sim.Control) {
	m.Controller.Tick(now, ctl)
}
