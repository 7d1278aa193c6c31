// Package power models node power consumption and the energy-sensing
// infrastructure the paper relies on.
//
// The paper measures each node with an external Omegawatt wattmeter at
// 1 Hz and derives a node's power as the average over past
// measurements (more than 6,000 samples in §IV). Here the wattmeter is
// emulated: it samples a PowerModel on a virtual-time grid, optionally
// with measurement noise and sample dropouts, and feeds the same
// moving-average estimator the dynamic GreenPerf approach uses.
package power

import "fmt"

// Watts is instantaneous power draw.
type Watts = float64

// Joules is accumulated energy.
type Joules = float64

// State is the coarse operating state of a node. Power draw depends on
// it (Eq. 5 in the paper distinguishes active servers from inactive
// servers that must boot first).
type State int

const (
	// Off means the node draws only residual (PSU/BMC) power.
	Off State = iota
	// Booting means the node is powering up; it draws BootW and
	// cannot execute tasks.
	Booting
	// On means the node is available; draw interpolates between
	// idle and peak with utilization.
	On
)

func (s State) String() string {
	switch s {
	case Off:
		return "off"
	case Booting:
		return "booting"
	case On:
		return "on"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Usable reports whether the node is executing or about to execute
// work: On now, or Booting toward On. Controllers count usable nodes
// as capacity already paid for (a booting node must not trigger a
// second wake-up).
func (s State) Usable() bool { return s == On || s == Booting }

// Model maps an operating point to instantaneous power draw.
type Model interface {
	// Power returns the draw for state s at utilization u in [0,1].
	// Utilization is ignored unless s == On.
	Power(s State, u float64) Watts
}

// LinearModel models non-energy-proportional servers with an
// activation step:
//
//	P(u) = Idle + Activation·[u > 0] + (Peak − Idle − Activation)·u
//
// The first busy core wakes the package/uncore domains and costs
// disproportionately (ActivationW); further cores add a linear
// increment up to PeakW. With ActivationW = 0 this degrades to the
// classic idle↔peak interpolation. The paper's related-work section
// notes resources are generally not energy proportional; this convex
// step is what makes load concentration (POWER policy) pay off against
// load spreading (RANDOM) on real GRID'5000 nodes.
type LinearModel struct {
	IdleW       Watts // draw at zero utilization, powered on
	PeakW       Watts // draw with all cores busy
	ActivationW Watts // extra draw as soon as any core is busy
	BootW       Watts // draw while booting
	OffW        Watts // residual draw while off (often ~0-10 W)
}

// Power implements Model. Utilization is clamped to [0,1].
func (m LinearModel) Power(s State, u float64) Watts {
	switch s {
	case Off:
		return m.OffW
	case Booting:
		return m.BootW
	default:
		if u <= 0 {
			return m.IdleW
		}
		if u > 1 {
			u = 1
		}
		return m.IdleW + m.ActivationW + (m.PeakW-m.IdleW-m.ActivationW)*u
	}
}

// Validate reports a descriptive error for physically meaningless
// parameters.
func (m LinearModel) Validate() error {
	switch {
	case m.IdleW < 0 || m.PeakW < 0 || m.BootW < 0 || m.OffW < 0 || m.ActivationW < 0:
		return fmt.Errorf("power: negative wattage in model %+v", m)
	case m.PeakW < m.IdleW+m.ActivationW:
		return fmt.Errorf("power: peak %.1fW below idle %.1fW + activation %.1fW", m.PeakW, m.IdleW, m.ActivationW)
	case m.OffW > m.IdleW:
		return fmt.Errorf("power: off draw %.1fW above idle %.1fW", m.OffW, m.IdleW)
	default:
		return nil
	}
}

// Accumulator integrates a piecewise-constant power signal into energy.
// Simulation code calls Advance with the power level that held since
// the previous call; the integral is exact for piecewise-constant
// signals (which is precisely what the DES produces).
type Accumulator struct {
	lastT float64
	total Joules
}

// NewAccumulator starts integrating at time t0 (seconds).
func NewAccumulator(t0 float64) *Accumulator {
	return &Accumulator{lastT: t0}
}

// Advance accounts energy for the interval [lastT, t] at draw w, then
// moves the cursor to t. Advancing backwards panics: it is always a
// simulation bug.
func (a *Accumulator) Advance(t float64, w Watts) {
	if t < a.lastT {
		panic(fmt.Sprintf("power: accumulator moved backwards: %.3f -> %.3f", a.lastT, t))
	}
	a.total += Joules(w * (t - a.lastT))
	a.lastT = t
}

// Total returns the accumulated energy in joules.
func (a *Accumulator) Total() Joules { return a.total }

// LastTime returns the integration cursor.
func (a *Accumulator) LastTime() float64 { return a.lastT }
