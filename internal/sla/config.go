package sla

import (
	"fmt"

	"greensched/internal/sched"
)

// Config wires SLA awareness into an executor (the simulator's
// sim.SLAModule, or a live deployment): the class catalog that
// resolves task terms, the admission controller, and the queue
// discipline SEDs apply to accepted-but-not-started work.
type Config struct {
	// Catalog resolves task classes; nil falls back to DefaultCatalog.
	Catalog Catalog
	// Admission, when set, screens every first submission; nil admits
	// everything (accounting still runs).
	Admission *Admission
	// Order is the SED queue discipline (sched.NewOrder: FIFO, EDF,
	// VALUE-DENSITY); nil keeps FIFO.
	Order sched.TaskOrder
	// UrgentBypass opens an express lane for deadline-carrying tasks:
	// they may elect any powered-on server even while a controller has
	// revoked its candidacy (carbon windows then defer only deferrable
	// work — SLA traffic is never parked behind a green window).
	// Powered-off servers remain unusable; waking them stays the
	// controllers' job, driven by Control.PendingSlack.
	UrgentBypass bool
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c == nil {
		return fmt.Errorf("sla: nil config")
	}
	if c.Catalog != nil {
		if err := c.Catalog.Validate(); err != nil {
			return err
		}
	}
	if c.Admission != nil {
		if err := c.Admission.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// EffectiveCatalog returns the configured catalog or the default.
func (c *Config) EffectiveCatalog() Catalog {
	if c.Catalog != nil {
		return c.Catalog
	}
	return DefaultCatalog()
}
