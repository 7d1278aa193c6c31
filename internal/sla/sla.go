// Package sla adds service-level objectives to the green scheduler:
// SLA classes with deadlines, per-task dollar values and lateness
// penalty curves, an admission controller that refuses work the
// platform provably cannot serve profitably, and a revenue/penalty
// ledger that turns each run into dollars earned, dollars forfeited,
// and joules / CO2 grams per dollar.
//
// GreenPerf (and the carbon layer) optimize watts and grams but treat
// every task as equally urgent and equally valuable; this package
// supplies the missing objective — energy saved vs. service promises
// broken — in the style of "Energy and SLA aware VM Scheduling"
// (Nanduri et al.) and "On Time-Sensitive Revenue Management and
// Energy Scheduling in Green Data Centers" (Li et al.).
//
// Everything here is a pure computation over task and class
// descriptions: no clocks, no goroutines, no I/O. The simulator and
// the live middleware both consume it, which keeps the two execution
// modes comparable.
package sla

import (
	"fmt"

	"greensched/internal/workload"
)

// Class is one service level: a relative deadline, a per-task value
// and the penalty curve applied when the deadline slips. Tasks refer
// to classes by name (workload.Task.Class); explicit per-task deadline
// or value fields override the class defaults.
type Class struct {
	Name string
	// RelDeadlineSec is the default completion deadline, seconds after
	// submission (0 = no deadline).
	RelDeadlineSec float64
	// ValueUSD is the default dollars earned by an on-time completion.
	ValueUSD float64
	// Curve maps lateness to the retained value fraction; nil means
	// Flat (full value whenever the task completes).
	Curve Curve
}

// Validate reports a descriptive error for unusable classes.
func (c Class) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("sla: class with empty name")
	case c.RelDeadlineSec < 0:
		return fmt.Errorf("sla: class %s has negative deadline", c.Name)
	case c.ValueUSD < 0:
		return fmt.Errorf("sla: class %s has negative value", c.Name)
	}
	if c.Curve != nil {
		return c.Curve.Validate()
	}
	return nil
}

// Catalog maps class names to their definitions.
type Catalog map[string]Class

// Canonical class names of the default catalog.
const (
	ClassBatch       = "batch"
	ClassDeadline    = "deadline"
	ClassInteractive = "interactive"
)

// DefaultCatalog returns the three-tier catalog the SLA study uses:
//
//	batch        no deadline, low value      — deferrable filler work
//	deadline     1 h hard-drop deadline      — worthless when late
//	interactive  60 s stepped deadline       — high value, partial
//	             credit for small slips, contractual penalty beyond
func DefaultCatalog() Catalog {
	return Catalog{
		ClassBatch: {
			Name: ClassBatch, ValueUSD: 0.05, Curve: Flat{},
		},
		ClassDeadline: {
			Name: ClassDeadline, RelDeadlineSec: 3600, ValueUSD: 0.50,
			Curve: HardDrop{},
		},
		ClassInteractive: {
			Name: ClassInteractive, RelDeadlineSec: 60, ValueUSD: 2.00,
			Curve: Stepped{Steps: []Step{
				{AfterSec: 0, Retained: 0.5},
				{AfterSec: 30, Retained: 0},
				{AfterSec: 300, Retained: -0.25},
			}},
		},
	}
}

// Validate checks every class and that map keys match class names.
func (c Catalog) Validate() error {
	for name, cl := range c {
		if name != cl.Name {
			return fmt.Errorf("sla: catalog key %q holds class %q", name, cl.Name)
		}
		if err := cl.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Terms is the resolved service agreement for one task: the absolute
// deadline, the dollar value and the penalty curve in force.
type Terms struct {
	Class    string
	Deadline float64 // absolute seconds; 0 = none
	ValueUSD float64
	Curve    Curve
}

// Resolve computes a task's effective terms: explicit task fields win,
// class defaults fill the gaps, and unclassified tasks fall back to
// best-effort (Flat curve, HardDrop when they carry a bare deadline).
func (c Catalog) Resolve(t workload.Task) Terms {
	out := Terms{Class: t.Class, Deadline: t.Deadline, ValueUSD: t.Value}
	if cl, ok := c[t.Class]; ok {
		if out.Deadline == 0 && cl.RelDeadlineSec > 0 {
			out.Deadline = t.Submit + cl.RelDeadlineSec
		}
		if out.ValueUSD == 0 {
			out.ValueUSD = cl.ValueUSD
		}
		out.Curve = cl.Curve
	}
	if out.Curve == nil {
		if out.Deadline > 0 {
			out.Curve = HardDrop{}
		} else {
			out.Curve = Flat{}
		}
	}
	return out
}

// Lateness returns how far past the terms' deadline a completion at
// finish is; ≤ 0 means on time (and always 0 without a deadline).
func (t Terms) Lateness(finish float64) float64 {
	if t.Deadline <= 0 {
		return 0
	}
	return finish - t.Deadline
}

// EarnedUSD returns the dollars a completion at finish earns under the
// terms — negative when the curve imposes a contractual penalty.
func (t Terms) EarnedUSD(finish float64) float64 {
	return t.ValueUSD * t.Curve.Retained(t.Lateness(finish))
}
