package middleware

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"greensched/internal/estvec"
	"greensched/internal/obs"
)

// ObsInterceptor puts the whole request lifecycle on a scrape
// endpoint — the observability mirror of the accounting the other
// interceptors already do. Mounted on a Master (FIRST in the stack, so
// it sees every submission before admission control can refuse it), it
// maintains:
//
//   - counters: requests, completions, failures, rejections, per-server
//     elections, carbon deferrals (count and parked seconds);
//   - gauges: in-flight requests, the parked deferral queue (count and
//     oldest age, from Master.Deferred), and the ledger — attributed
//     energy, CO2 grams, budget joules, earned/penalty/forfeited
//     dollars — refreshed from the interceptor stack's own Finalize
//     totals at every scrape, so the endpoint always agrees with the
//     books;
//   - histograms: solve latency and attributed energy per request.
//
// Init registers a scrape collector that runs Master.Finalize before
// each render (Finalize is documented to re-publish current totals),
// which is what keeps a live scrape and an end-of-run study printout
// byte-for-byte consistent.
//
// Several masters may share one Registry: give each mount distinct
// Labels values (the same label KEYS — exposition families are shared)
// and every series splits cleanly, e.g. {transport="tcp"} next to
// {transport="inproc"}.
type ObsInterceptor struct {
	BaseInterceptor

	// Registry receives the metric families; nil means a private
	// registry created at Init (reachable via Metrics).
	Registry *obs.Registry
	// Labels are constant labels stamped on every metric this mount
	// produces. All mounts sharing a Registry must use the same label
	// keys.
	Labels map[string]string

	names []string // sorted label names
	vals  []string // label values, parallel to names

	requests    obs.Counter
	completions obs.Counter
	failures    obs.Counter
	rejections  obs.Counter
	deferrals   obs.Counter
	deferredSec obs.Counter
	elections   *obs.CounterVec

	inflight     obs.Gauge
	parked       obs.Gauge
	parkedOldest obs.Gauge
	energyJ      obs.Gauge
	co2Grams     obs.Gauge
	budgetJ      obs.Gauge
	earnedUSD    obs.Gauge
	penaltyUSD   obs.Gauge
	forfeitUSD   obs.Gauge

	solveSec  obs.Histogram
	energyReq obs.Histogram

	// Journal families, registered only when the master mounts a
	// journal and refreshed at scrape time from journal.Stats plus the
	// master's replay atomics.
	jrnRecords  obs.Counter
	jrnBytes    obs.Counter
	jrnRotates  obs.Counter
	jrnReplays  obs.Counter
	jrnExpiries obs.Counter
	jrnRedone   obs.Counter
	jrnErrors   obs.Counter
	jrnPending  obs.Gauge

	// Fleet-wide per-SED families, labelled (labels..., "sed") and
	// refreshed at scrape time from Master.SEDStats — which covers
	// remote daemons through the wireStats frame, so one master scrape
	// sees the whole fleet without per-SED listeners.
	sedCompleted *obs.CounterVec
	sedFailed    *obs.CounterVec
	sedInflight  *obs.GaugeVec
	sedQueued    *obs.GaugeVec
	sedActive    *obs.GaugeVec
	sedMeanExec  *obs.GaugeVec
	sedPowerW    *obs.GaugeVec

	mu           sync.Mutex
	seen         map[uint64]struct{}
	lastDeferred float64
	lastDefSec   float64

	// electBy caches the per-server election counters (copy-on-write,
	// like the Agent snapshots): the hot OnElect path is one atomic load
	// and a map read instead of two slice allocations plus a label-key
	// join under the family mutex per request.
	electMu sync.Mutex
	electBy atomic.Pointer[map[string]obs.Counter]
}

// Metrics returns the registry the interceptor publishes into —
// the one given, or the private one Init created.
func (o *ObsInterceptor) Metrics() *obs.Registry { return o.Registry }

// Init implements Interceptor: it resolves the label set, registers
// every family, and hooks the scrape-time refresh.
func (o *ObsInterceptor) Init(mount Mount) error {
	if mount.Master == nil {
		return fmt.Errorf("middleware: obs interceptor mounts on a Master")
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	o.names = make([]string, 0, len(o.Labels))
	for k := range o.Labels {
		o.names = append(o.names, k)
	}
	sort.Strings(o.names)
	o.vals = make([]string, len(o.names))
	for i, k := range o.names {
		o.vals[i] = o.Labels[k]
	}
	o.seen = make(map[uint64]struct{})
	o.electBy.Store(&map[string]obs.Counter{})

	reg := o.Registry
	counter := func(name, help string) obs.Counter {
		return reg.CounterVec(name, help, o.names...).With(o.vals...)
	}
	gauge := func(name, help string) obs.Gauge {
		return reg.GaugeVec(name, help, o.names...).With(o.vals...)
	}
	o.requests = counter("greensched_requests_total", "Requests submitted to the master.")
	o.completions = counter("greensched_completions_total", "Requests solved successfully.")
	o.failures = counter("greensched_failures_total", "Requests failed after admission (election, transport, execution).")
	o.rejections = counter("greensched_rejections_total", "Submissions refused by admission control.")
	o.deferrals = counter("greensched_deferrals_total", "Requests released after a carbon-window deferral.")
	o.deferredSec = counter("greensched_deferred_seconds_total", "Seconds requests spent parked in carbon-window deferrals.")
	o.elections = reg.CounterVec("greensched_elections_total",
		"Elections won, by SED.", append(append([]string{}, o.names...), "server")...)

	o.inflight = gauge("greensched_inflight", "Admitted requests currently in the lifecycle (including parked).")
	o.parked = gauge("greensched_deferred_parked", "Carbon-deferred requests currently parked.")
	o.parkedOldest = gauge("greensched_deferred_oldest_age_seconds", "Age of the oldest currently parked request.")
	o.energyJ = gauge("greensched_energy_joules", "Attributed energy of all completions (LiveResult.EnergyJ).")
	o.co2Grams = gauge("greensched_co2_grams", "Emissions attribution (LiveResult.CO2Grams).")
	o.budgetJ = gauge("greensched_budget_spent_joules", "Energy the budget tracker metered (LiveResult.BudgetSpentJ).")
	o.earnedUSD = gauge("greensched_ledger_earned_dollars", "SLA ledger dollars earned.")
	o.penaltyUSD = gauge("greensched_ledger_penalty_dollars", "SLA ledger contractual penalties.")
	o.forfeitUSD = gauge("greensched_ledger_forfeited_dollars", "SLA ledger value forfeited by rejections and failures.")

	solveB := append([]float64{0.001, 0.0025}, obs.DefBuckets...)
	o.solveSec = reg.HistogramVec("greensched_solve_seconds",
		"Solve latency of successful requests.", solveB, o.names...).With(o.vals...)
	o.energyReq = reg.HistogramVec("greensched_request_energy_joules",
		"Attributed energy share per successful request.", obs.ExpBuckets(0.001, 10, 12), o.names...).With(o.vals...)

	if mount.Master.jrn != nil {
		o.jrnRecords = counter("greensched_journal_records_total", "Lifecycle records appended to the dispatch journal.")
		o.jrnBytes = counter("greensched_journal_bytes_total", "Bytes appended to the dispatch journal (headers + payloads).")
		o.jrnRotates = counter("greensched_journal_rotations_total", "Segment rotations (compactions) the journal performed.")
		o.jrnReplays = counter("greensched_journal_replays_total", "Incomplete requests re-submitted by Master.Replay.")
		o.jrnExpiries = counter("greensched_journal_lease_expiries_total", "Leases found expired (or waited out) during replay.")
		o.jrnRedone = counter("greensched_journal_redo_total", "Leased requests redone on a different SED after lease expiry.")
		o.jrnErrors = counter("greensched_journal_errors_total", "Journal append/sync errors (appends the master could not make durable).")
		o.jrnPending = gauge("greensched_journal_pending", "Incomplete lifecycles currently tracked by the journal.")
	}

	sedLabels := append(append([]string{}, o.names...), "sed")
	o.sedCompleted = reg.CounterVec("greensched_sed_completed_total", "Requests each SED completed (fleet-wide, incl. remotes).", sedLabels...)
	o.sedFailed = reg.CounterVec("greensched_sed_failed_total", "Requests each SED failed (fleet-wide, incl. remotes).", sedLabels...)
	o.sedInflight = reg.GaugeVec("greensched_sed_inflight", "Requests currently executing on each SED.", sedLabels...)
	o.sedQueued = reg.GaugeVec("greensched_sed_queued", "Requests waiting in each SED's queue.", sedLabels...)
	o.sedActive = reg.GaugeVec("greensched_sed_active", "1 when the SED accepts work, 0 when drained.", sedLabels...)
	o.sedMeanExec = reg.GaugeVec("greensched_sed_mean_exec_seconds", "Mean execution time of each SED's completions.", sedLabels...)
	o.sedPowerW = reg.GaugeVec("greensched_sed_power_watts", "Each SED's learned power draw.", sedLabels...)

	// Scrape-time refresh: the ledger gauges re-publish through the
	// stack's Finalize (idempotent by contract), the parked-queue
	// gauges read Master.Deferred, and the fleet families read
	// Master.SEDStats, so any scraper sees totals that agree with the
	// books at that instant. The SED counters arrive as absolute
	// snapshots; the monotone delta keeps them counters.
	master := mount.Master
	reg.OnScrape(func() {
		st := master.Deferred()
		o.parked.Set(float64(st.Parked))
		o.parkedOldest.Set(st.OldestSec)
		if jrn := master.jrn; jrn != nil {
			js := jrn.Stats()
			o.jrnRecords.Add(float64(js.Appended) - o.jrnRecords.Value())
			o.jrnBytes.Add(float64(js.BytesTotal) - o.jrnBytes.Value())
			o.jrnRotates.Add(float64(js.Rotations) - o.jrnRotates.Value())
			o.jrnReplays.Add(float64(master.replays.Load()) - o.jrnReplays.Value())
			o.jrnExpiries.Add(float64(master.leaseExpiries.Load()) - o.jrnExpiries.Value())
			o.jrnRedone.Add(float64(master.redone.Load()) - o.jrnRedone.Value())
			o.jrnErrors.Add(float64(js.SyncErrors) + float64(master.journalErrs.Load()) - o.jrnErrors.Value())
			o.jrnPending.Set(float64(js.Pending))
		}
		for _, s := range master.SEDStats() {
			lv := append(append([]string{}, o.vals...), s.Name)
			c := o.sedCompleted.With(lv...)
			c.Add(float64(s.Completed) - c.Value())
			f := o.sedFailed.With(lv...)
			f.Add(float64(s.Failed) - f.Value())
			o.sedInflight.With(lv...).Set(float64(s.InFlight))
			o.sedQueued.With(lv...).Set(float64(s.Queued))
			active := 0.0
			if s.Active {
				active = 1
			}
			o.sedActive.With(lv...).Set(active)
			o.sedMeanExec.With(lv...).Set(s.MeanExecSec)
			o.sedPowerW.With(lv...).Set(s.PowerW)
		}
		master.Finalize()
	})
	return nil
}

// OnSubmit implements Interceptor: every submission counts, enters the
// in-flight gauge.
func (o *ObsInterceptor) OnSubmit(_ context.Context, _ float64, req *Request) error {
	o.requests.Inc()
	o.inflight.Inc()
	o.mu.Lock()
	o.seen[req.ID] = struct{}{}
	o.mu.Unlock()
	return nil
}

// OnElect implements Interceptor: the election's winner is counted.
func (o *ObsInterceptor) OnElect(_ float64, _ Request, server string, _ estvec.List) {
	o.electionCounter(server).Inc()
}

// electionCounter resolves the per-server election counter through the
// copy-on-write cache; a miss (first election of a new server) takes
// the slow path once and publishes a fresh snapshot.
func (o *ObsInterceptor) electionCounter(server string) obs.Counter {
	if c, ok := (*o.electBy.Load())[server]; ok {
		return c
	}
	o.electMu.Lock()
	defer o.electMu.Unlock()
	cur := *o.electBy.Load()
	if c, ok := cur[server]; ok {
		return c
	}
	c := o.elections.With(append(append([]string{}, o.vals...), server)...)
	next := make(map[string]obs.Counter, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[server] = c
	o.electBy.Store(&next)
	return c
}

// OnComplete implements Interceptor: outcomes split into completions,
// rejections and failures; latency and energy reach the histograms.
// Records for requests this interceptor never saw submit (possible
// when it is mounted after a rejecting interceptor) still count as
// requests, so the counters stay consistent at any mount position.
func (o *ObsInterceptor) OnComplete(rec RequestRecord) {
	o.mu.Lock()
	_, wasSeen := o.seen[rec.Req.ID]
	delete(o.seen, rec.Req.ID)
	o.mu.Unlock()
	if wasSeen {
		o.inflight.Dec()
	} else {
		o.requests.Inc()
	}
	switch {
	case rec.Err == nil:
		o.completions.Inc()
		o.solveSec.Observe(rec.Finish - rec.Start)
		o.energyReq.Observe(rec.EnergyJ)
	case errors.Is(rec.Err, ErrRejected):
		o.rejections.Inc()
	default:
		o.failures.Inc()
	}
}

// Rebook implements Rebooker: a journaled, settled outcome restored
// after a restart counts as one request with its outcome — never as
// in-flight.
func (o *ObsInterceptor) Rebook(rec RequestRecord) {
	o.requests.Inc()
	switch {
	case rec.Err == nil:
		o.completions.Inc()
		o.solveSec.Observe(rec.Finish - rec.Start)
		o.energyReq.Observe(rec.EnergyJ)
	case errors.Is(rec.Err, ErrRejected):
		o.rejections.Inc()
	default:
		o.failures.Inc()
	}
}

// Finalize implements Interceptor: the ledger gauges re-publish from
// the totals the rest of the stack put on the result. Mount this
// interceptor FIRST so reverse-order Finalize runs it LAST, after the
// carbon, budget and SLA interceptors have published theirs.
func (o *ObsInterceptor) Finalize(res *LiveResult) {
	o.mu.Lock()
	o.deferrals.Add(float64(res.Deferred) - o.lastDeferred)
	o.deferredSec.Add(res.DeferredSec - o.lastDefSec)
	o.lastDeferred = float64(res.Deferred)
	o.lastDefSec = res.DeferredSec
	o.mu.Unlock()

	o.energyJ.Set(res.EnergyJ)
	o.co2Grams.Set(res.CO2Grams)
	o.budgetJ.Set(res.BudgetSpentJ)
	if res.SLA != nil {
		o.earnedUSD.Set(res.SLA.EarnedUSD)
		o.penaltyUSD.Set(res.SLA.PenaltyUSD)
		o.forfeitUSD.Set(res.SLA.ForfeitedUSD)
	}
}
