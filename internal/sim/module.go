package sim

import (
	"fmt"

	"greensched/internal/carbon"
	"greensched/internal/sched"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// This file is the simulator's composable extension surface. The
// paper's middleware is a plug-in architecture (DIET agents with
// pluggable schedulers); Module makes the simulator match it: every
// cross-cutting concern — carbon accounting, SLA admission and
// ledgers, preemption, power-management controllers, budget tracking —
// attaches to a run as one element of Config.Modules instead of
// occupying a dedicated Config field. A
// scenario stacks as many modules as it needs; the hooks of every
// module run in stack order at each extension point.

// Module observes and steers one simulation run. All hooks are called
// synchronously inside the event loop on virtual time. Implementations
// embed BaseModule to pick only the hooks they need; a Module instance
// belongs to one run (Init must fully reset any internal state).
type Module interface {
	// Init runs once inside NewRunner, after the platform state is
	// built and before any event executes — the place to validate
	// parameters and attach per-node state. Returning an error aborts
	// the run.
	Init(r *Runner) error

	// OnArrival observes (and may mutate) a task at its first
	// submission, before admission control and server election; with
	// an SLA module in the stack, the task's terms re-resolve after
	// the hooks run, so class/deadline/value mutations reach
	// admission, the ledger and the queue discipline. It is not called
	// again for retries, crash resubmissions or preemption restarts.
	OnArrival(now float64, t *workload.Task)

	// WrapPolicy builds the election policy for one arriving task from
	// the policy the previous module in the stack produced (the first
	// module receives Config.Policy). Returning base unchanged leaves
	// the election alone.
	WrapPolicy(now float64, t workload.Task, base sched.Policy) sched.Policy

	// OnFinish observes every completed task record as it happens.
	OnFinish(rec TaskRecord)

	// OnTick runs every Config.ControlEvery virtual seconds with the
	// Control surface over the platform (power management, candidacy,
	// preemption). Ticks stop once all tasks resolve.
	OnTick(now float64, ctl Control)

	// Finalize runs once after the event loop drains and the result's
	// energy and emissions totals are settled — the place to publish
	// summaries onto the Result.
	Finalize(res *Result)
}

// BaseModule is a no-op Module for embedding: implementations override
// only the hooks they care about.
type BaseModule struct{}

// Init implements Module.
func (BaseModule) Init(*Runner) error { return nil }

// OnArrival implements Module.
func (BaseModule) OnArrival(float64, *workload.Task) {}

// WrapPolicy implements Module.
func (BaseModule) WrapPolicy(_ float64, _ workload.Task, base sched.Policy) sched.Policy {
	return base
}

// OnFinish implements Module.
func (BaseModule) OnFinish(TaskRecord) {}

// OnTick implements Module.
func (BaseModule) OnTick(float64, Control) {}

// Finalize implements Module.
func (BaseModule) Finalize(*Result) {}

// CarbonModule attaches a grid carbon-intensity profile to the run:
// every node's exact energy accounting is integrated against its
// site's signal into grams of CO2 (Result.CO2Grams and the per-task
// attribution), and SEDs report their site's current intensity and
// renewable fraction in their estimation vectors so carbon-aware
// policies can rank on them. Candidacy windows that *defer* work into
// clean periods are a controller concern — stack a
// consolidation.Module carrying a CarbonController on top.
//
// (It lives in package sim rather than package carbon because Init
// writes the runner's per-node state, and sim imports carbon for the
// signal types; a carbon.Module would close an import cycle.)
type CarbonModule struct {
	BaseModule
	Profile *carbon.Profile
}

// Init implements Module: it attaches the site signal and a fresh
// emissions integrator to every node.
func (m *CarbonModule) Init(r *Runner) error {
	if m.Profile == nil {
		return fmt.Errorf("sim: carbon module needs a profile")
	}
	for _, sed := range r.seds {
		if sed.site != nil {
			return fmt.Errorf("sim: node %s already carries a carbon profile (two carbon modules in one stack?)", sed.node.Spec.Name)
		}
		site := m.Profile.Site(sed.node.Spec.Cluster)
		co2, err := carbon.NewIntegrator(site, 0)
		if err != nil {
			return fmt.Errorf("sim: node %s: %w", sed.node.Spec.Name, err)
		}
		sed.site = &site
		sed.co2 = co2
	}
	return nil
}

// SLAModule turns on service-level awareness: task classes resolve to
// deadlines/values/penalty curves through the catalog, admission
// control screens first submissions, SED queues drain under the
// configured discipline instead of FIFO, and the Result carries the
// revenue/penalty ledger plus per-task slack.
//
// With WrapDeadline set the module also owns the election policy of
// deadline-carrying tasks: it wraps the stack's policy in
// sched.DeadlineAware for the task's own resolved deadline, which is
// the per-task wiring SLA experiments would otherwise hand-roll in
// their own WrapPolicy.
type SLAModule struct {
	BaseModule
	Config *sla.Config
	// WrapDeadline wraps elections of deadline-carrying tasks with
	// sched.DeadlineAware over the stack's base policy.
	WrapDeadline bool

	r  *Runner
	dl sched.DeadlineAware // WrapPolicy's result, rebuilt in place per election
}

// Init implements Module: it validates the config, resolves every
// task's terms against the catalog and installs the ledger and queue
// discipline.
func (m *SLAModule) Init(r *Runner) error {
	if m.Config == nil {
		return fmt.Errorf("sim: SLA module needs a config")
	}
	if err := m.Config.Validate(); err != nil {
		return err
	}
	if r.sla != nil {
		return fmt.Errorf("sim: two SLA modules in one stack")
	}
	r.sla = m.Config
	r.catalog = m.Config.EffectiveCatalog()
	r.terms = make(map[int]sla.Terms, len(r.cfg.Tasks))
	for _, t := range r.cfg.Tasks {
		r.terms[t.ID] = r.catalog.Resolve(t)
	}
	r.ledger = sla.NewLedger()
	for _, sed := range r.seds {
		sed.order = m.Config.Order
	}
	m.r = r
	return nil
}

// WrapPolicy implements Module: deadline-carrying tasks elect through
// the hard feasibility screen; deferrable work keeps the base order.
// The policy returned is valid for this election only.
func (m *SLAModule) WrapPolicy(now float64, t workload.Task, base sched.Policy) sched.Policy {
	if !m.WrapDeadline {
		return base
	}
	view := m.r.taskView(t)
	if view.Deadline <= 0 {
		return base
	}
	m.dl = sched.DeadlineAware{Base: base, Ops: t.Ops, Now: now, Deadline: view.Deadline}
	return &m.dl
}

// Finalize implements Module: it publishes the ledger summary.
func (m *SLAModule) Finalize(res *Result) {
	s := m.r.ledger.Summarize(float64(res.EnergyJ), res.CO2Grams)
	res.SLA = &s
}

// PreemptModule relaxes the run-to-completion invariant: a
// deadline-urgent arrival may checkpoint and displace a running task
// when the elected SED's own slack math says waiting would breach the
// deadline but an immediate start would not, and controllers may issue
// Control.Preempt. The checkpointed fraction of the victim's Ops is
// retained minus the configured restart penalty; the victim re-enters
// election with the remainder. A victim whose own deadline the restart
// would breach is never displaced (sla.SafeToDisplace). Without the
// module tasks are non-preemptible.
type PreemptModule struct {
	BaseModule
	Preemption *sla.Preemption
}

// Init implements Module.
func (m *PreemptModule) Init(r *Runner) error {
	if m.Preemption == nil {
		return fmt.Errorf("sim: preempt module needs preemption semantics")
	}
	if err := m.Preemption.Validate(); err != nil {
		return err
	}
	if r.pre != nil {
		return fmt.Errorf("sim: two preemption modules in one stack")
	}
	r.pre = m.Preemption
	return nil
}
