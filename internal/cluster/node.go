package cluster

import (
	"fmt"

	"greensched/internal/power"
)

// Node is the runtime state machine of one physical node inside a
// simulation: operating state, busy cores, energy accounting and the
// attached (emulated) wattmeter.
//
// Node performs exact piecewise-constant energy integration: every
// state transition first settles the elapsed interval at the old draw.
// Node is not safe for concurrent use; the DES is single-goroutine.
type Node struct {
	Spec NodeSpec

	state     power.State
	busyCores int

	acc   *power.Accumulator
	meter *power.Wattmeter

	bootDoneAt float64 // valid while state == Booting

	// OnSettle, when set, observes every settled interval [from, to]
	// and the constant draw that held over it — the exact
	// piecewise-constant power signal. Carbon accounting hooks in
	// here; the callback must not mutate the node.
	OnSettle func(from, to float64, w power.Watts)
}

// NewNode returns a powered-on idle node at time t0 with an attached
// ideal 1 Hz wattmeter. Pass meter=nil to attach one later or run
// meterless.
func NewNode(spec NodeSpec, t0 float64, meter *power.Wattmeter) *Node {
	return &Node{
		Spec:  spec,
		state: power.On,
		acc:   power.NewAccumulator(t0),
		meter: meter,
	}
}

// State returns the current operating state.
func (n *Node) State() power.State { return n.state }

// BusyCores returns the number of cores currently executing tasks.
func (n *Node) BusyCores() int { return n.busyCores }

// Utilization returns busy/total cores in [0,1].
func (n *Node) Utilization() float64 {
	return float64(n.busyCores) / float64(n.Spec.Cores)
}

// Power returns the current instantaneous draw.
func (n *Node) Power() power.Watts {
	return n.Spec.PowerModel().Power(n.state, n.Utilization())
}

// Energy returns the accumulated energy through the last settle point.
func (n *Node) Energy() power.Joules { return n.acc.Total() }

// settle integrates energy (and feeds the wattmeter) for the interval
// since the last transition, at the draw that held over that interval.
func (n *Node) settle(now float64) {
	from := n.acc.LastTime()
	w := n.Power()
	if n.meter != nil && now > from {
		n.meter.Observe(from, now, w)
	}
	n.acc.Advance(now, w)
	if n.OnSettle != nil && now > from {
		n.OnSettle(from, now, w)
	}
}

// Settle exposes settlement for metric sampling points (e.g. the
// 10-minute averages of Figure 9) without changing state.
func (n *Node) Settle(now float64) { n.settle(now) }

// LastSettle returns the node's integration cursor: the latest time
// its energy accounting reflects. Finalization code settles at
// max(makespan, LastSettle) so power transitions that outlive the last
// task (a boot completing after the final finish) stay integrated
// instead of panicking the accumulator.
func (n *Node) LastSettle() float64 { return n.acc.LastTime() }

// StartTask marks one core busy. It returns an error if the node is
// not On or already full — callers (the scheduler) must respect the
// paper's constraint that "a server cannot execute a number of tasks
// greater than its number of cores".
func (n *Node) StartTask(now float64) error {
	if n.state != power.On {
		return fmt.Errorf("cluster: %s is %v, cannot start task", n.Spec.Name, n.state)
	}
	if n.busyCores >= n.Spec.Cores {
		return fmt.Errorf("cluster: %s has no free core (%d busy)", n.Spec.Name, n.busyCores)
	}
	n.settle(now)
	n.busyCores++
	return nil
}

// FinishTask releases one core.
func (n *Node) FinishTask(now float64) error {
	if n.busyCores <= 0 {
		return fmt.Errorf("cluster: %s has no running task to finish", n.Spec.Name)
	}
	n.settle(now)
	n.busyCores--
	return nil
}

// PowerOff transitions On→Off. Tasks must have drained first; shutting
// down a busy node is an orchestration bug and returns an error.
func (n *Node) PowerOff(now float64) error {
	if n.state != power.On {
		return fmt.Errorf("cluster: %s is %v, cannot power off", n.Spec.Name, n.state)
	}
	if n.busyCores > 0 {
		return fmt.Errorf("cluster: %s still has %d busy cores", n.Spec.Name, n.busyCores)
	}
	n.settle(now)
	n.state = power.Off
	return nil
}

// PowerOn transitions Off→Booting and returns the absolute time the
// boot completes (now + BootSec). Callers schedule BootDone then.
func (n *Node) PowerOn(now float64) (bootDone float64, err error) {
	if n.state != power.Off {
		return 0, fmt.Errorf("cluster: %s is %v, cannot power on", n.Spec.Name, n.state)
	}
	n.settle(now)
	n.state = power.Booting
	n.bootDoneAt = now + n.Spec.BootSec
	return n.bootDoneAt, nil
}

// BootDone transitions Booting→On. It must be called at the time
// returned by PowerOn.
func (n *Node) BootDone(now float64) error {
	if n.state != power.Booting {
		return fmt.Errorf("cluster: %s is %v, spurious BootDone", n.Spec.Name, n.state)
	}
	n.settle(now)
	n.state = power.On
	return nil
}

// Crash models a node failure: all running work is lost and the node
// is Off. It returns the number of tasks that were killed; the caller
// must reschedule them.
func (n *Node) Crash(now float64) int {
	n.settle(now)
	killed := n.busyCores
	n.busyCores = 0
	n.state = power.Off
	return killed
}
