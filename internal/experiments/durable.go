package experiments

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"greensched/internal/estvec"
	"greensched/internal/journal"
	"greensched/internal/middleware"
	"greensched/internal/report"
	"greensched/internal/sched"
)

// The durable dispatch study is the crash drill for the journaled live
// queue: the same workload runs twice per transport — once
// uninterrupted (the control books), once with the master killed
// mid-run while one request is leased to a SED and another is parked
// in a carbon window. A second master incarnation recovers the journal,
// rebooks every settled outcome exactly once, waits out the orphaned
// lease and redoes the work on a DIFFERENT SED. The study's claim is
// the paper-level one for a middleware that fronts real clusters: a
// scheduler process is allowed to die without losing admitted work or
// corrupting the revenue books.

// DurableConfig parameterizes the crash drill.
type DurableConfig struct {
	// Request mix: Interactive requests carry a 60 s deadline at $2
	// (one more interactive request is the one caught mid-execution by
	// the crash), Batch are deferrable at $0.05 (one is caught parked
	// in a carbon window), Hopeless are admission-rejected before the
	// crash so a settled rejection is rebooked too.
	Interactive int
	Batch       int
	Hopeless    int

	// Ops per request; the SEDs of livePlatform "compute" by sleeping
	// Ops/FlopsPerCore.
	Ops float64

	// The grid: the interrupted run's first incarnation opens a dirty
	// window (DirtyG) long enough that the parked batch request is
	// provably still parked at the crash; the restarted incarnation
	// and the control run see a clean grid (CleanG) throughout.
	CleanG float64
	DirtyG float64

	// LeaseTermSec bounds SED ownership of a dispatched request: the
	// restarted master waits this long (from the lease) before redoing
	// orphaned work on another SED.
	LeaseTermSec float64

	BudgetJ          float64
	BudgetHorizonSec float64

	// Dir receives the journal files (control-*.wal, crash-*.wal);
	// empty means the caller must set one (tests use t.TempDir()).
	Dir string
}

// DefaultDurableConfig returns the calibrated sub-second drill.
func DefaultDurableConfig() DurableConfig {
	return DurableConfig{
		Interactive:      3,
		Batch:            2,
		Hopeless:         1,
		Ops:              2e6,
		CleanG:           60,
		DirtyG:           600,
		LeaseTermSec:     0.25,
		BudgetJ:          1e6,
		BudgetHorizonSec: 60,
	}
}

// Validate reports configuration errors.
func (c DurableConfig) Validate() error {
	switch {
	case c.Interactive <= 0 || c.Batch <= 0 || c.Hopeless <= 0:
		return fmt.Errorf("experiments: durable study needs interactive, batch and hopeless requests")
	case c.Ops <= 0:
		return fmt.Errorf("experiments: durable study needs positive ops")
	case c.DirtyG <= c.CleanG || c.CleanG < 0:
		return fmt.Errorf("experiments: dirty intensity %v must exceed clean %v", c.DirtyG, c.CleanG)
	case c.LeaseTermSec <= 0:
		return fmt.Errorf("experiments: durable study needs a positive lease term")
	case c.BudgetJ <= 0 || c.BudgetHorizonSec <= 0:
		return fmt.Errorf("experiments: durable study needs a positive budget and horizon")
	case c.Dir == "":
		return fmt.Errorf("experiments: durable study needs a journal directory")
	}
	return nil
}

// ExpectedEarnedUSD is the dollar total BOTH runs must book: every
// interactive request (including the one the crash interrupts) at $2,
// every batch request at $0.05. The hopeless requests forfeit $1 each
// in both runs — rejection happens before the crash, and its rebooked
// record restores the forfeiture exactly once.
func (c DurableConfig) ExpectedEarnedUSD() float64 {
	return 2*float64(c.Interactive+1) + 0.05*float64(c.Batch)
}

// DurableRun is one transport's outcome.
type DurableRun struct {
	Transport string

	// Control is the uninterrupted run's finalized result.
	Control middleware.LiveResult
	// Interrupted is the RESTARTED master's finalized result: rebooked
	// settled outcomes plus replayed incomplete work. Zero lost
	// requests means its counters equal Control's.
	Interrupted middleware.LiveResult

	// Replay is the restarted master's replay pass.
	Replay middleware.ReplayStats

	// The incomplete set the crash left behind, as the restarted
	// journal recovered it.
	LeasedAtCrash   int
	DeferredAtCrash int

	// RedoFrom is the SED that held the orphaned lease; RedoTo is the
	// SED the restarted master elected for the redo (always different).
	RedoFrom string
	RedoTo   string

	// JournalStats snapshots the restarted journal after replay.
	JournalStats journal.Stats

	ExpectedEarnedUSD float64
}

// DurableResult bundles the compared transports.
type DurableResult struct {
	Config DurableConfig
	Runs   []DurableRun // fixed order: IN-PROCESS, TCP
}

// RunDurableStudy executes the crash drill over both transports.
func RunDurableStudy(cfg DurableConfig) (*DurableResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	runs, err := overTransports("durable", func(transport string) (DurableRun, error) {
		return runDurable(cfg, transport)
	})
	if err != nil {
		return nil, err
	}
	return &DurableResult{Config: cfg, Runs: runs}, nil
}

// durableMaster deploys one master incarnation over fleet: the
// interceptor stack is rebuilt from scratch each time (a restarted
// process has no memory), only the journal file persists. elected,
// when non-nil, observes every election.
func durableMaster(cfg DurableConfig, fleet *middleware.Fleet, name string, jrn *journal.Journal,
	sig *liveStepSignal, elected func(req middleware.Request, server string)) (*middleware.Deployment, error) {
	ics, err := liveStack(cfg.Ops, &middleware.CarbonInterceptor{
		Signal:      sig,
		DirtyG:      (cfg.CleanG + cfg.DirtyG) / 2,
		MaxDeferSec: 600, PollSec: 0.02,
	}, cfg.BudgetJ, cfg.BudgetHorizonSec)
	if err != nil {
		return nil, err
	}
	if elected != nil {
		ics = append(ics, &middleware.HookInterceptor{
			OnElectFunc: func(_ float64, req middleware.Request, server string, _ estvec.List) {
				elected(req, server)
			},
		})
	}
	return fleet.Deploy(
		middleware.WithName(name),
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
		middleware.WithInterceptors(ics...),
		middleware.WithJournal(jrn),
		middleware.WithLeaseTerm(time.Duration(cfg.LeaseTermSec*float64(time.Second))),
	)
}

// durableFleet builds the two executors, offering "stall" next to
// "compute": it blocks until release closes (the request the crash
// catches mid-execution) and reports each start on started, if set.
func durableFleet(transport string, sig *liveStepSignal, release <-chan struct{}, started chan<- uint64) (*middleware.Fleet, error) {
	return liveFleet(transport, middleware.FleetSpec{Carbon: sig, Services: []middleware.Service{{
		Name: "stall",
		Solve: func(ctx context.Context, req middleware.Request) ([]byte, error) {
			if started != nil {
				select {
				case started <- req.ID:
				default:
				}
			}
			select {
			case <-release:
				return []byte("done"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}}})
}

// runDurable runs control + interrupted on one transport.
func runDurable(cfg DurableConfig, transport string) (DurableRun, error) {
	run := DurableRun{Transport: transport, ExpectedEarnedUSD: cfg.ExpectedEarnedUSD()}
	suffix := transportLabel(transport)
	var err error
	if run.Control, err = durableControl(cfg, transport, filepath.Join(cfg.Dir, "control-"+suffix+".wal")); err != nil {
		return run, err
	}
	crashPath := filepath.Join(cfg.Dir, "crash-"+suffix+".wal")
	sig := &liveStepSignal{dirtyG: cfg.DirtyG, cleanG: cfg.CleanG}
	stallRelease := make(chan struct{})
	stallStarted := make(chan uint64, 2)
	// The executors survive the master's death: in-process the SED
	// objects carry straight over; on TCP their daemons are re-served
	// and re-dialed by the new incarnation.
	fleet, err := durableFleet(transport, sig, stallRelease, stallStarted)
	if err != nil {
		return run, err
	}
	if err := durableCrash(cfg, fleet, "durable-crash-"+suffix, crashPath, sig, stallRelease, stallStarted); err != nil {
		return run, err
	}
	return run, durableRestart(cfg, fleet, "durable-restart-"+suffix, crashPath, &run)
}

// durableControl runs the full mix uninterrupted on a clean grid: the
// books the interrupted run must match.
func durableControl(cfg DurableConfig, transport, path string) (middleware.LiveResult, error) {
	jrn, err := journal.Open(path, journal.Options{})
	if err != nil {
		return middleware.LiveResult{}, err
	}
	defer jrn.Close()
	sig := &liveStepSignal{dirtyG: cfg.DirtyG, cleanG: cfg.CleanG}
	release := make(chan struct{})
	close(release) // control never stalls
	fleet, err := durableFleet(transport, sig, release, nil)
	if err != nil {
		return middleware.LiveResult{}, err
	}
	ctl, err := durableMaster(cfg, fleet, "durable-control-"+transportLabel(transport), jrn, sig, nil)
	if err != nil {
		return middleware.LiveResult{}, err
	}
	defer ctl.Close()
	if err := submitDurableMix(ctl.Master, cfg); err != nil {
		return middleware.LiveResult{}, err
	}
	res := *ctl.Finalize()
	ctl.Close()
	return res, jrn.Close()
}

// durableCrash is the interrupted run's first incarnation: it settles
// the quick requests, then dies with one batch request parked in a
// carbon window and one interactive request executing.
func durableCrash(cfg DurableConfig, fleet *middleware.Fleet, name, path string, sig *liveStepSignal,
	stallRelease chan struct{}, stallStarted <-chan uint64) error {
	jrn, err := journal.Open(path, journal.Options{})
	if err != nil {
		return err
	}
	defer jrn.Close()
	m, err := durableMaster(cfg, fleet, name, jrn, sig, nil)
	if err != nil {
		return err
	}
	defer m.Close()

	// Settled before the crash: the quick interactives and the
	// hopeless rejections.
	if err := submitDurableSettled(m.Master, cfg); err != nil {
		return err
	}

	// The crash tears every in-flight lifecycle down. The stall is
	// released before the transport closes — the TCP endpoint drains
	// in-flight handlers on Close — which also means the dead master's
	// request finishes EXECUTING on the executor: lease-based redo is
	// at-least-once execution with exactly-once booking, and the books
	// the restart asserts prove the duplicate never lands.
	ctx, crash := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		crash()
		close(stallRelease)
		wg.Wait()
	}()

	// Open a dirty window ending far past the crash point and park one
	// batch request in it (the rest of the batch settled above, before
	// the window opened): the crash must catch a live carbon park.
	sig.anchor(m.Now() + 600)
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Do(ctx, middleware.Request{Service: "compute", Ops: cfg.Ops, Class: LiveClassBatch, Deferrable: true})
	}()
	if err := awaitParked(m.Master, 1); err != nil {
		return err
	}

	// One interactive request is mid-execution (leased, never to
	// settle) when the master dies.
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Do(ctx, middleware.Request{Service: "stall", Ops: cfg.Ops, Class: LiveClassInteractive})
	}()
	select {
	case <-stallStarted:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("stalled request never reached a SED")
	}
	// The journal handle dies first (kill -9 — no settle, no sync, so
	// the leased and parked lifecycles stay incomplete on disk).
	jrn.Abandon()
	return nil
}

// durableRestart is the interrupted run's second incarnation: it
// recovers the journal, replays it and finishes the work.
func durableRestart(cfg DurableConfig, fleet *middleware.Fleet, name, path string, run *DurableRun) error {
	jrn, err := journal.Open(path, journal.Options{})
	if err != nil {
		return err
	}
	defer jrn.Close()
	for _, e := range jrn.Pending() {
		switch e.State {
		case journal.StateLeased:
			run.LeasedAtCrash++
			run.RedoFrom = e.SED
		case journal.StateDeferred:
			run.DeferredAtCrash++
		}
	}
	sig := &liveStepSignal{dirtyG: cfg.DirtyG, cleanG: cfg.CleanG} // clean: the window died with incarnation 1
	var redoMu sync.Mutex
	m, err := durableMaster(cfg, fleet, name, jrn, sig, func(req middleware.Request, server string) {
		if req.Service == "stall" {
			redoMu.Lock()
			run.RedoTo = server
			redoMu.Unlock()
		}
	})
	if err != nil {
		return err
	}
	defer m.Close()
	st, err := m.Replay(context.Background())
	if err != nil {
		return err
	}
	// The deferred entry replays in the background (Replay never waits
	// behind a carbon window); the restarted grid is clean, so draining
	// it here is what proves the park survived the crash.
	if err := m.ReplayWait(context.Background()); err != nil {
		return err
	}
	run.Replay = st
	run.Interrupted = *m.Finalize()
	run.JournalStats = jrn.Stats()
	m.Close()
	return jrn.Close()
}

// submitDurableSettled drives the requests that settle BEFORE the
// crash: the quick interactives and the hopeless rejections.
func submitDurableSettled(m *middleware.Master, cfg DurableConfig) error {
	if err := submitEach(m, cfg.Interactive, middleware.Request{Service: "compute", Ops: cfg.Ops, Class: LiveClassInteractive}, "interactive"); err != nil {
		return err
	}
	if err := submitEach(m, cfg.Batch-1, middleware.Request{Service: "compute", Ops: cfg.Ops, Class: LiveClassBatch, Deferrable: true}, "batch"); err != nil {
		return err
	}
	return rejectHopeless(m, cfg.Hopeless, cfg.Ops)
}

// submitDurableMix drives the FULL mix to completion — the control
// run's workload: everything submitDurableSettled covers plus the two
// requests the interrupted run crashes on (one more batch, one more
// interactive — service "stall" resolves instantly there because the
// control's release channel is pre-closed).
func submitDurableMix(m *middleware.Master, cfg DurableConfig) error {
	if err := submitDurableSettled(m, cfg); err != nil {
		return err
	}
	if err := submitEach(m, 1, middleware.Request{Service: "compute", Ops: cfg.Ops, Class: LiveClassBatch, Deferrable: true}, "final batch"); err != nil {
		return err
	}
	return submitEach(m, 1, middleware.Request{Service: "stall", Ops: cfg.Ops, Class: LiveClassInteractive}, "final interactive")
}

// awaitParked polls the master's deferral stats until n requests are
// parked (bounded; the poll interval is far below the study's dirty
// window).
func awaitParked(m *middleware.Master, n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m.Deferred().Parked >= n {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("deferrable request never parked")
}

// Table renders the per-transport comparison.
func (r *DurableResult) Table() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Durable dispatch: kill/restart with 1 leased + 1 parked in flight (lease %.2gs)",
			r.Config.LeaseTermSec),
		Headers: []string{"Transport", "Run", "Done", "Rejected", "Failed",
			"Earned ($)", "Budget (J)", "Replayed", "Redone"},
	}
	for _, run := range r.Runs {
		for _, row := range []struct {
			name   string
			res    middleware.LiveResult
			replay *middleware.ReplayStats
		}{
			{"control", run.Control, nil},
			{"kill+restart", run.Interrupted, &run.Replay},
		} {
			earned := 0.0
			if row.res.SLA != nil {
				earned = row.res.SLA.EarnedUSD
			}
			replayed, redone := "-", "-"
			if row.replay != nil {
				replayed = fmt.Sprintf("%d", row.replay.Resubmitted)
				redone = fmt.Sprintf("%d", row.replay.Redone)
			}
			t.AddRow(run.Transport, row.name,
				fmt.Sprintf("%d", row.res.Completed),
				fmt.Sprintf("%d", row.res.Rejected),
				fmt.Sprintf("%d", row.res.Failed),
				fmt.Sprintf("%.2f", earned),
				fmt.Sprintf("%.2f", row.res.BudgetSpentJ),
				replayed, redone,
			)
		}
	}
	return t
}

// Render writes the table plus the study's headline invariants.
func (r *DurableResult) Render(w io.Writer) error {
	if err := r.Table().Render(w); err != nil {
		return err
	}
	for _, run := range r.Runs {
		fmt.Fprintf(w, "\n%s: crash left %d leased + %d deferred incomplete; lease expired on %q, redone on %q; journal holds %d records (%d B, %d pending after replay)\n",
			run.Transport, run.LeasedAtCrash, run.DeferredAtCrash, run.RedoFrom, run.RedoTo,
			run.JournalStats.Appended, run.JournalStats.BytesTotal, run.JournalStats.Pending)
	}
	fmt.Fprintf(w, "\nEvery admitted request survived a master kill: settled outcomes rebooked exactly once, the orphaned lease redone on a different SED, the carbon park replayed — identical books over %s and %s transports\n",
		LiveTransportInProcess, LiveTransportTCP)
	return nil
}
