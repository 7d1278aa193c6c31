package middleware

import (
	"fmt"

	"greensched/internal/budget"
)

// BudgetInterceptor meters the live deployment against an energy
// budget — the mirror of budget.Module: every completion charges its
// attributed energy share (Response.EnergyJ, which crosses the TCP
// transport) to the Tracker at its finish time.
type BudgetInterceptor struct {
	BaseInterceptor

	// Tracker meters consumption (joules) against the budget; give
	// every deployment its own.
	Tracker *budget.Tracker
}

// Init implements Interceptor.
func (b *BudgetInterceptor) Init(Mount) error {
	if b.Tracker == nil {
		return fmt.Errorf("middleware: budget interceptor needs a tracker")
	}
	return nil
}

// OnComplete implements Interceptor.
func (b *BudgetInterceptor) OnComplete(rec RequestRecord) {
	b.Tracker.Charge(rec.Finish, rec.EnergyJ)
}

// Rebook implements Rebooker: a journaled outcome's energy share is
// charged at its original finish time, exactly once, after a restart.
func (b *BudgetInterceptor) Rebook(rec RequestRecord) {
	b.Tracker.Charge(rec.Finish, rec.EnergyJ)
}

// Finalize implements Interceptor.
func (b *BudgetInterceptor) Finalize(res *LiveResult) {
	res.BudgetSpentJ += b.Tracker.Spent()
}
