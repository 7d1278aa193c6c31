package sim

import (
	"greensched/internal/sched"
	"greensched/internal/workload"
)

// HookModule adapts bare functions into a Module, so a test can drop
// an ad-hoc observer into a stack. Nil fields are no-ops. It is
// exported for the external sim_test package.
type HookModule struct {
	InitFunc       func(r *Runner) error
	OnArrivalFunc  func(now float64, t *workload.Task)
	WrapPolicyFunc func(now float64, t workload.Task, base sched.Policy) sched.Policy
	OnFinishFunc   func(rec TaskRecord)
	OnTickFunc     func(now float64, ctl Control)
	FinalizeFunc   func(res *Result)
}

// Init implements Module.
func (h *HookModule) Init(r *Runner) error {
	if h.InitFunc == nil {
		return nil
	}
	return h.InitFunc(r)
}

// OnArrival implements Module.
func (h *HookModule) OnArrival(now float64, t *workload.Task) {
	if h.OnArrivalFunc != nil {
		h.OnArrivalFunc(now, t)
	}
}

// WrapPolicy implements Module.
func (h *HookModule) WrapPolicy(now float64, t workload.Task, base sched.Policy) sched.Policy {
	if h.WrapPolicyFunc == nil {
		return base
	}
	return h.WrapPolicyFunc(now, t, base)
}

// OnFinish implements Module.
func (h *HookModule) OnFinish(rec TaskRecord) {
	if h.OnFinishFunc != nil {
		h.OnFinishFunc(rec)
	}
}

// OnTick implements Module.
func (h *HookModule) OnTick(now float64, ctl Control) {
	if h.OnTickFunc != nil {
		h.OnTickFunc(now, ctl)
	}
}

// Finalize implements Module.
func (h *HookModule) Finalize(res *Result) {
	if h.FinalizeFunc != nil {
		h.FinalizeFunc(res)
	}
}
