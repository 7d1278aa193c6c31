package middleware

import (
	"context"
	"errors"
	"fmt"
	"time"

	"greensched/internal/core"
	"greensched/internal/journal"
)

// WithJournal mounts a write-ahead log under the request lifecycle:
// every admission is journaled before the interceptor stack runs, every
// SED dispatch books a lease (owner + expiry), carbon-parked requests
// are journaled as deferred, and every outcome settles the entry. A
// master restarted over the same journal calls Replay to re-book the
// settled outcomes and re-submit the incomplete work, so a crash loses
// nothing that was admitted.
//
// The master also seeds its request-ID sequence past the journal's
// highest ID, so post-restart traffic never collides with journaled
// lifecycles. Journal write errors never fail requests — availability
// over durability — they are counted (greensched_journal_errors_total
// with an ObsInterceptor mounted).
func WithJournal(j *journal.Journal) Option {
	return func(c *masterConfig) { c.journal = j }
}

// WithLeaseTerm sets the dispatch lease term booked per SED dispatch
// (zero: journal.DefaultLeaseTermSec; negative is an error). A lease bounds how long a SED
// owns a request: after a master restart, a journaled lease must expire
// before Replay redoes the work — on a different SED — which is what
// keeps redo from racing an executor that may still be computing.
func WithLeaseTerm(d time.Duration) Option {
	return func(c *masterConfig) { c.leaseTermSec = d.Seconds() }
}

// Journal returns the mounted write-ahead log, or nil without
// WithJournal. Interceptors use it at Init time to journal their own
// lifecycle contributions (CarbonInterceptor journals parks).
func (m *Master) Journal() *journal.Journal { return m.jrn }

// journalAdmit journals a request's admission before the interceptor
// stack runs, so even a request that parks (or crashes) inside an
// OnSubmit hook is durable. Errors are counted, never fatal. Fsync
// failures are excluded here — journal.Stats.SyncErrors already counts
// them, and greensched_journal_errors_total sums both sources.
func (m *Master) journalAdmit(req Request) {
	if m.jrn == nil {
		return
	}
	if err := m.jrn.Admit(journal.Record{
		ID: req.ID, Service: req.Service, Ops: req.Ops, Pref: float64(req.Pref),
		Class: req.Class, Deadline: req.Deadline, Value: req.Value,
		Deferrable: req.Deferrable, Payload: req.Payload, SubmitAt: m.clock(),
	}); err != nil && !errors.Is(err, journal.ErrSync) {
		m.journalErrs.Add(1)
	}
}

// journalLease books a dispatch lease; a failover re-lease simply
// supersedes the previous one.
func (m *Master) journalLease(id uint64, sed string) {
	if m.jrn == nil {
		return
	}
	if _, err := m.jrn.Lease(id, sed, m.leaseTermSec); err != nil && !errors.Is(err, journal.ErrSync) {
		m.journalErrs.Add(1)
	}
}

// journalSettle records a request's terminal outcome.
func (m *Master) journalSettle(id uint64, err error, finish, execSec, energyJ float64) {
	if m.jrn == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	if jerr := m.jrn.Settle(id, outcome(err), finish, execSec, energyJ, msg); jerr != nil && !errors.Is(jerr, journal.ErrSync) {
		m.journalErrs.Add(1)
	}
}

// Rebooker is the optional interceptor surface Replay restores settled
// outcomes through: Rebook books a journaled, already-terminal record
// into the interceptor's accounts exactly once, without re-running
// admission or execution. SLA, carbon, budget and obs interceptors
// implement it, which is what makes a restarted master's ledger,
// emissions, budget and counters byte-equal to an uninterrupted run.
type Rebooker interface {
	Rebook(rec RequestRecord)
}

// ReplayStats summarizes one Replay pass.
type ReplayStats struct {
	// Rebooked counts settled outcomes restored to the books.
	Rebooked int
	// Resubmitted counts incomplete requests re-driven through the
	// full lifecycle, including the deferred entries handed to the
	// background (see Replay — their outcomes land after it returns).
	Resubmitted int
	// LeaseExpired counts leases Replay waited out before redoing the
	// work.
	LeaseExpired int
	// Redone counts leased requests redone successfully on a different
	// SED.
	Redone int
	// Failed counts synchronous resubmissions that failed again (a
	// replayed rejection is not a failure — admission re-screened it).
	// A background deferred re-submission that fails is journaled and
	// counted on the master like any failed request, not here.
	Failed int
}

// Replay folds the journal back into a freshly restarted master: the
// outcomes that settled before the crash are re-booked through every
// Rebooker interceptor (exactly once — they are never re-executed),
// and the incomplete requests are re-submitted through the full
// interceptor stack, so SLA admission, carbon deferral and budget
// metering account for them exactly as first-time traffic. A request
// the dead master had leased to a SED is redone only after its lease
// expires, excluding that SED from the election: this is the
// master's failover path.
//
// Deferred (carbon-parked) entries are re-submitted in the BACKGROUND:
// a replayed deferrable request re-enters the carbon interceptor,
// which parks it until the grid window clears — potentially hours —
// and master startup must not wait behind a green window (nor delay
// the redo of expired leases, which Replay drives first). The
// background re-submissions run under ctx and settle onto the books
// and the journal exactly like first-time traffic; ReplayWait blocks
// until they drain.
//
// Call it once, after NewMaster and before accepting new traffic.
func (m *Master) Replay(ctx context.Context) (ReplayStats, error) {
	var st ReplayStats
	if m.jrn == nil {
		return st, fmt.Errorf("middleware: Replay needs WithJournal")
	}
	for _, e := range m.jrn.Settled() {
		rec := replayRecord(e)
		m.submitted.Add(1)
		m.count(rec)
		for _, ic := range m.ics {
			if rb, ok := ic.(Rebooker); ok {
				rb.Rebook(rec)
			}
		}
		st.Rebooked++
	}
	var deferred []journal.Entry
	for _, e := range m.jrn.Pending() {
		if e.State == journal.StateDeferred {
			deferred = append(deferred, e)
			continue
		}
		req := replayRequest(e)
		var excluded map[string]bool
		if e.State == journal.StateLeased {
			if err := m.awaitLeaseExpiry(ctx, e.Expiry); err != nil {
				return st, err
			}
			st.LeaseExpired++
			m.leaseExpiries.Add(1)
			if e.SED != "" {
				excluded = map[string]bool{e.SED: true}
			}
		}
		st.Resubmitted++
		m.replays.Add(1)
		_, err := m.doWith(ctx, req, excluded)
		switch {
		case err == nil:
			if e.State == journal.StateLeased {
				st.Redone++
				m.redone.Add(1)
			}
		case ctx.Err() != nil:
			return st, ctx.Err()
		case !errors.Is(err, ErrRejected):
			st.Failed++
		}
	}
	for _, e := range deferred {
		st.Resubmitted++
		m.replays.Add(1)
		req := replayRequest(e)
		m.replayWG.Add(1)
		go func() {
			defer m.replayWG.Done()
			m.doWith(ctx, req, nil)
		}()
	}
	return st, nil
}

// ReplayWait blocks until the background deferred re-submissions the
// last Replay launched have settled, or ctx ends. An entry still
// parked when the master shuts down simply stays incomplete in the
// journal — the next incarnation replays it again.
func (m *Master) ReplayWait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		m.replayWG.Wait()
		close(done)
	}()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-done:
		return nil
	}
}

// awaitLeaseExpiry sleeps (on the journal clock) until a journaled
// lease expires, respecting ctx.
func (m *Master) awaitLeaseExpiry(ctx context.Context, expiry float64) error {
	for {
		wait := expiry - m.jrn.Now()
		if wait <= 0 {
			return nil
		}
		t := time.NewTimer(time.Duration(wait * float64(time.Second)))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// replayRequest rebuilds the admitted request from its journal entry,
// preserving its original ID (the journal dedups on it — the replayed
// lifecycle continues the journaled one instead of starting another).
func replayRequest(e journal.Entry) Request {
	a := e.Admit
	return Request{
		ID: a.ID, Service: a.Service, Ops: a.Ops, Pref: core.UserPref(a.Pref),
		Payload: a.Payload, Class: a.Class, Deadline: a.Deadline, Value: a.Value,
		Deferrable: a.Deferrable,
	}
}

// replayRecord rebuilds the RequestRecord of a settled journal entry
// for rebooking, at its ORIGINAL submit and finish times.
func replayRecord(e journal.Entry) RequestRecord {
	req := replayRequest(e)
	f := e.Final
	start := e.Admit.SubmitAt
	if f.ExecSec > 0 && f.FinishAt > f.ExecSec {
		start = f.FinishAt - f.ExecSec
	}
	rec := RequestRecord{
		Req: req, Server: e.SED,
		Submit: e.Admit.SubmitAt, Start: start, Finish: f.FinishAt,
		ExecSec: f.ExecSec, EnergyJ: f.EnergyJ,
	}
	switch e.State {
	case journal.StateRejected:
		rec.Err = fmt.Errorf("%w: %s", ErrRejected, f.Err)
	case journal.StateFailed:
		rec.Err = errors.New(f.Err)
	}
	return rec
}
