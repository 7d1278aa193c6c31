package middleware

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"greensched/internal/sla"
	"greensched/internal/workload"
)

// SLAInterceptor puts the sla package's machinery on the live serving
// path — the mirror of sim.SLAModule. Mounted on a Master it resolves
// every request's class terms against the catalog, screens first
// submissions through the admission controller (a refusal surfaces as
// ErrRejected and forfeits the request's value in the ledger), and
// credits every live completion through its penalty curve, so a
// deployment accrues real dollars exactly the way a simulated run
// does.
//
// Admission needs a best-case execution estimate; the interceptor
// learns the platform's fastest observed flops from completions and
// starts from the BestFlops hint until the first one lands.
//
// Mount it BEFORE a deferring CarbonInterceptor: OnSubmit writes the
// resolved absolute deadline back onto the request, and that is what
// keeps deadline-carrying traffic out of green-window parking. (The
// ledger summary still sees the carbon totals — Finalize hooks run in
// reverse stack order.)
type SLAInterceptor struct {
	BaseInterceptor

	// Config supplies the catalog and admission controller; nil (or
	// nil fields) means DefaultCatalog and admit-everything. The
	// queue-discipline and bypass fields have no live counterpart —
	// SED queues are the transport's FIFO semaphores.
	Config *sla.Config

	// BestFlops seeds the best-case execution estimate (flop/s of the
	// fastest node) before any completion is observed; 0 admits
	// everything until the first completion calibrates it.
	BestFlops float64

	mu        sync.Mutex
	catalog   sla.Catalog
	admission *sla.Admission
	ledger    *sla.Ledger
	terms     map[uint64]sla.Terms
	bestFlops float64
}

// Init implements Interceptor.
func (i *SLAInterceptor) Init(Mount) error {
	cfg := i.Config
	if cfg == nil {
		cfg = &sla.Config{}
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if i.BestFlops < 0 {
		return fmt.Errorf("middleware: SLA interceptor BestFlops %v negative", i.BestFlops)
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.catalog = cfg.EffectiveCatalog()
	i.admission = cfg.Admission
	i.ledger = sla.NewLedger()
	i.terms = make(map[uint64]sla.Terms)
	i.bestFlops = i.BestFlops
	return nil
}

// OnSubmit implements Interceptor: it resolves the request's terms
// (writing the effective absolute deadline back onto the request so
// later interceptors and policies see it), runs admission, and books a
// rejection's forfeited value.
func (i *SLAInterceptor) OnSubmit(_ context.Context, now float64, req *Request) error {
	terms := i.catalog.Resolve(workload.Task{
		ID: int(req.ID), Ops: req.Ops, Submit: now,
		Deadline: req.Deadline, Value: req.Value, Class: req.Class,
	})
	req.Deadline = terms.Deadline
	req.Value = terms.ValueUSD

	i.mu.Lock()
	defer i.mu.Unlock()
	if i.admission != nil && i.bestFlops > 0 && req.Ops > 0 {
		best := req.Ops / i.bestFlops
		if i.admission.Decide(now, best, terms) == sla.Reject {
			i.ledger.Reject(terms)
			return fmt.Errorf("%w: %s request %d: best case %.3gs cannot earn by deadline %.3gs",
				ErrRejected, terms.Class, req.ID, best, terms.Deadline)
		}
	}
	i.terms[req.ID] = terms
	return nil
}

// OnComplete implements Interceptor: the outcome of an admitted
// request is booked on the ledger (see book) and its per-request terms
// are released either way, so a long-lived master with flaky SEDs
// neither leaks state nor loses dollars from the books.
func (i *SLAInterceptor) OnComplete(rec RequestRecord) {
	i.mu.Lock()
	defer i.mu.Unlock()
	terms, admitted := i.terms[rec.Req.ID]
	delete(i.terms, rec.Req.ID)
	i.book(rec, terms, admitted)
}

// Rebook implements Rebooker: a journaled, already-settled outcome is
// restored to the ledger after a master restart. Terms resolve from
// the record's ORIGINAL submit time, so the dollars land exactly where
// the dead master would have booked them; nothing is stored in the
// per-request terms map — the lifecycle is already over.
func (i *SLAInterceptor) Rebook(rec RequestRecord) {
	terms := i.catalog.Resolve(workload.Task{
		ID: int(rec.Req.ID), Ops: rec.Req.Ops, Submit: rec.Submit,
		Deadline: rec.Req.Deadline, Value: rec.Req.Value, Class: rec.Req.Class,
	})
	i.mu.Lock()
	defer i.mu.Unlock()
	i.book(rec, terms, true)
}

// book is the one outcome rule of the ledger, live and rebooked alike:
// a success recalibrates the best-case flops estimate and, with terms,
// is credited through its penalty curve; an error wrapping ErrRejected
// books a rejection and any other error a failure — the master's rule
// — each forfeiting the admitted value. The caller holds mu.
func (i *SLAInterceptor) book(rec RequestRecord, terms sla.Terms, admitted bool) {
	if rec.Err == nil && rec.ExecSec > 0 && rec.Req.Ops > 0 {
		if f := rec.Req.Ops / rec.ExecSec; f > i.bestFlops {
			i.bestFlops = f
		}
	}
	switch {
	case !admitted:
	case rec.Err == nil:
		i.ledger.Complete(terms, rec.Finish)
	case errors.Is(rec.Err, ErrRejected):
		i.ledger.Reject(terms)
	default:
		i.ledger.Fail(terms)
	}
}

// Finalize implements Interceptor: it publishes the ledger summary,
// dividing the run's energy and emissions into per-dollar intensities.
// Master.Finalize runs hooks in reverse stack order, so an
// SLAInterceptor mounted early sees the totals interceptors mounted
// after it published.
func (i *SLAInterceptor) Finalize(res *LiveResult) {
	s := i.Summarize(res.EnergyJ, res.CO2Grams)
	res.SLA = &s
}

// Summarize snapshots the live ledger against running energy and
// emissions totals.
func (i *SLAInterceptor) Summarize(energyJ, co2Grams float64) sla.Summary {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.ledger.Summarize(energyJ, co2Grams)
}
