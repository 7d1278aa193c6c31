package middleware

import (
	"context"
	"errors"

	"greensched/internal/estvec"
	"greensched/internal/sla"
)

// This file is the live middleware's composable extension surface —
// the counterpart of the simulator's sim.Module stack. The paper's
// architecture is a plug-in middleware, and after the sim grew its
// module API every cross-cutting concern (carbon windows, SLA
// admission and ledgers, budget tracking) composed there but not on
// the live serving path. Interceptor closes that gap: request
// lifecycle hooks mount on a Master, estimation hooks mount on SEDs,
// and the first-party interceptors (SLAInterceptor, CarbonInterceptor,
// BudgetInterceptor) give the live hierarchy parity with the sim
// stack.
//
// Hooks run in stack order. Estimation wraps fold left-to-right
// exactly like sim.Config.Modules' WrapPolicy: the first interceptor
// receives the SED's stock estimation function, each later one wraps
// what the previous produced, so the last interceptor in the stack is
// outermost.

// ErrRejected marks a submission refused by an interceptor's OnSubmit
// (admission control, budget exhaustion). Callers distinguish a
// rejection from an infrastructure failure with errors.Is.
var ErrRejected = errors.New("middleware: submission rejected")

// Mount identifies where an interceptor is being installed. Exactly
// one field is non-nil: Master for request-lifecycle mounts
// (NewMaster/WithInterceptors), SED for estimation-side mounts
// (SEDConfig.Interceptors).
type Mount struct {
	Master *Master
	SED    *SED
}

// RequestRecord is one request outcome as the lifecycle hooks see it.
// Times are seconds on the mounting Master's clock (Master.Now).
type RequestRecord struct {
	Req    Request
	Server string // the SED that solved it ("" when election failed)

	Submit float64 // when OnSubmit hooks finished (post-deferral)
	Start  float64 // when the elected SED was invoked
	Finish float64 // when the outcome was known

	// ExecSec and EnergyJ are the SED-reported execution time and
	// attributed energy share (see Response); zero when the SED has no
	// meter.
	ExecSec float64
	EnergyJ float64

	// Err is non-nil when the request failed after admission (election
	// error, transport loss, execution failure) — interceptors that
	// attached per-request state in OnSubmit release it here, and
	// ledgers book the loss instead of letting it vanish.
	Err error
}

// LiveResult is the live counterpart of sim.Result: the counters a
// Master accumulated plus whatever summaries the interceptors publish
// from their Finalize hooks.
type LiveResult struct {
	Submitted int
	Completed int
	// Rejected counts submissions refused by OnSubmit hooks
	// (errors.Is ErrRejected); Failed counts elections and executions
	// that errored.
	Rejected int
	Failed   int

	// EnergyJ sums the attributed energy share of every completion.
	EnergyJ float64

	// Deferred / DeferredSec describe carbon-window deferrals
	// (published by CarbonInterceptor.Finalize).
	Deferred    int
	DeferredSec float64

	// CO2Grams is the emissions attribution published by
	// CarbonInterceptor.Finalize (energy shares integrated against the
	// grid signal at completion time).
	CO2Grams float64

	// BudgetSpentJ is the consumption the budget tracker metered
	// (published by BudgetInterceptor.Finalize).
	BudgetSpentJ float64

	// SLA is the revenue/penalty ledger summary (published by
	// SLAInterceptor.Finalize).
	SLA *sla.Summary
}

// Interceptor observes and steers the live request lifecycle — the
// middleware mirror of sim.Module. Implementations embed
// BaseInterceptor to pick only the hooks they need. Hooks mounted on a
// Master may run concurrently for different requests; implementations
// guard their own state.
type Interceptor interface {
	// Init runs once when the interceptor is mounted (NewMaster,
	// NewSED) — the place to validate parameters and grab the mount's
	// clock. Returning an error aborts construction.
	Init(mount Mount) error

	// OnSubmit screens (and may mutate) a request before election.
	// Returning an error aborts the submission; wrap ErrRejected to
	// mark a deliberate refusal. Hooks run in stack order and the
	// first error wins. A hook may block (carbon-window deferral) —
	// ctx bounds the wait, and each hook receives the clock reading at
	// its own invocation, so time spent deferring in an earlier
	// interceptor is visible to later ones. Master mounts only.
	OnSubmit(ctx context.Context, now float64, req *Request) error

	// WrapEstimation builds the SED's effective estimation function
	// from the one the previous interceptor in the stack produced (the
	// first receives the stock DefaultEstimation). Returning base
	// unchanged leaves estimation alone. SED mounts only.
	WrapEstimation(base EstimationFunc) EstimationFunc

	// OnElect observes the election outcome before the SED is invoked.
	OnElect(now float64, req Request, server string, list estvec.List)

	// OnComplete observes every request outcome: successful
	// completions, and failures or rejections (rec.Err non-nil —
	// including an error from a LATER interceptor's OnSubmit) so
	// per-request state attached in OnSubmit is always released.
	// Hooks must tolerate records for requests they never admitted.
	OnComplete(rec RequestRecord)

	// Finalize publishes summaries onto the result. Master.Finalize
	// fills the counters, then runs the hooks in REVERSE stack order —
	// the onion's exit path — so an early-mounted interceptor
	// summarizes over what later ones published (SLAInterceptor
	// mounted first divides its ledger by the grams a later
	// CarbonInterceptor attributed).
	Finalize(res *LiveResult)
}

// PowerSource is an optional Interceptor extension for SED mounts: a
// SED polls every mounted source around each execution and feeds the
// first available reading to its dynamic power/performance estimator.
// MeterInterceptor is the stock implementation.
type PowerSource interface {
	PowerW() (watts float64, ok bool)
}

// BaseInterceptor is a no-op Interceptor for embedding:
// implementations override only the hooks they care about.
type BaseInterceptor struct{}

// Init implements Interceptor.
func (BaseInterceptor) Init(Mount) error { return nil }

// OnSubmit implements Interceptor.
func (BaseInterceptor) OnSubmit(context.Context, float64, *Request) error { return nil }

// WrapEstimation implements Interceptor.
func (BaseInterceptor) WrapEstimation(base EstimationFunc) EstimationFunc { return base }

// OnElect implements Interceptor.
func (BaseInterceptor) OnElect(float64, Request, string, estvec.List) {}

// OnComplete implements Interceptor.
func (BaseInterceptor) OnComplete(RequestRecord) {}

// Finalize implements Interceptor.
func (BaseInterceptor) Finalize(*LiveResult) {}

// HookInterceptor adapts a bare election observer into an Interceptor
// — the quickest way to drop an ad-hoc observer into a stack. A nil
// OnElectFunc is a no-op.
type HookInterceptor struct {
	BaseInterceptor
	OnElectFunc func(now float64, req Request, server string, list estvec.List)
}

// OnElect implements Interceptor.
func (h *HookInterceptor) OnElect(now float64, req Request, server string, list estvec.List) {
	if h.OnElectFunc != nil {
		h.OnElectFunc(now, req, server, list)
	}
}

// MeterInterceptor supplies live power readings to the SED's dynamic
// estimator. Mount it on a SED.
type MeterInterceptor struct {
	BaseInterceptor
	Meter MeterFunc
}

// Init implements Interceptor.
func (m *MeterInterceptor) Init(Mount) error {
	if m.Meter == nil {
		return errors.New("middleware: meter interceptor needs a meter function")
	}
	return nil
}

// PowerW implements PowerSource.
func (m *MeterInterceptor) PowerW() (float64, bool) { return m.Meter() }
