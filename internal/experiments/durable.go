package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"greensched/internal/budget"
	"greensched/internal/estvec"
	"greensched/internal/journal"
	"greensched/internal/middleware"
	"greensched/internal/report"
	"greensched/internal/sched"
	"greensched/internal/sla"
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

	// Ops per request; SEDs "compute" by sleeping Ops/flops.
	Ops         float64
	LeanFlops   float64
	HungryFlops float64
	LeanWatts   float64
	HungryWatts float64

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
		LeanFlops:        1e9,
		HungryFlops:      4e9,
		LeanWatts:        80,
		HungryWatts:      320,
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
	case c.Ops <= 0 || c.LeanFlops <= 0 || c.HungryFlops <= 0:
		return fmt.Errorf("experiments: durable study needs positive ops and flops")
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

// durableMaster builds one master incarnation over seds: the
// interceptor stack is rebuilt from scratch each time (a restarted
// process has no memory), only the journal file persists. elected,
// when non-nil, observes every election. The returned func closes the
// incarnation's transport.
func durableMaster(cfg DurableConfig, transport, name string, jrn *journal.Journal,
	sig *liveStepSignal, seds []*middleware.SED, elected func(req middleware.Request, server string)) (*middleware.Master, func(), error) {
	tracker, err := budget.NewTracker(cfg.BudgetJ, cfg.BudgetHorizonSec)
	if err != nil {
		return nil, nil, err
	}
	ics := []middleware.Interceptor{
		&middleware.SLAInterceptor{
			Config: &sla.Config{
				Catalog:   wallClockCatalog(cfg.Ops, cfg.HungryFlops),
				Admission: &sla.Admission{Margin: 1},
			},
			BestFlops: cfg.HungryFlops,
		},
		&middleware.CarbonInterceptor{
			Signal:      sig,
			DirtyG:      (cfg.CleanG + cfg.DirtyG) / 2,
			MaxDeferSec: 600, PollSec: 0.02,
		},
		&middleware.BudgetInterceptor{Tracker: tracker},
	}
	if elected != nil {
		ics = append(ics, &middleware.HookInterceptor{
			OnElectFunc: func(_ float64, req middleware.Request, server string, _ estvec.List) {
				elected(req, server)
			},
		})
	}
	opts := []middleware.Option{
		middleware.WithName(name),
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
		middleware.WithInterceptors(ics...),
		middleware.WithJournal(jrn),
		middleware.WithLeaseTerm(time.Duration(cfg.LeaseTermSec * float64(time.Second))),
	}
	attach, closers, err := attachSEDs(transport, seds, nil)
	if err != nil {
		return nil, nil, err
	}
	detach := func() { closeAll(closers) }
	m, err := middleware.NewMaster(append(opts, attach)...)
	if err != nil {
		detach()
		return nil, nil, err
	}
	return m, detach, nil
}

// runDurable runs control + interrupted on one transport.
func runDurable(cfg DurableConfig, transport string) (DurableRun, error) {
	run := DurableRun{Transport: transport, ExpectedEarnedUSD: cfg.ExpectedEarnedUSD()}
	suffix := transportLabel(transport)

	// --- Control: the same mix, uninterrupted, clean grid ---
	ctlPath := filepath.Join(cfg.Dir, "control-"+suffix+".wal")
	ctlJrn, err := journal.Open(ctlPath, journal.Options{})
	if err != nil {
		return run, err
	}
	ctlSig := &liveStepSignal{dirtyG: cfg.DirtyG, cleanG: cfg.CleanG}
	release := make(chan struct{})
	close(release) // control never stalls
	seds, err := durableSEDs(cfg, ctlSig, release, nil)
	if err != nil {
		return run, err
	}
	ctl, closeCtl, err := durableMaster(cfg, transport, "durable-control-"+suffix, ctlJrn, ctlSig, seds, nil)
	if err != nil {
		return run, err
	}
	if err := submitDurableMix(ctl, cfg, true); err != nil {
		closeCtl()
		return run, err
	}
	run.Control = *ctl.Finalize()
	closeCtl()
	if err := ctlJrn.Close(); err != nil {
		return run, err
	}

	// --- Interrupted, incarnation 1: crash mid-run ---
	crashPath := filepath.Join(cfg.Dir, "crash-"+suffix+".wal")
	jrn1, err := journal.Open(crashPath, journal.Options{})
	if err != nil {
		return run, err
	}
	sig1 := &liveStepSignal{dirtyG: cfg.DirtyG, cleanG: cfg.CleanG}
	stallRelease := make(chan struct{})
	stallStarted := make(chan uint64, 2)
	seds1, err := durableSEDs(cfg, sig1, stallRelease, stallStarted)
	if err != nil {
		return run, err
	}
	m1, close1, err := durableMaster(cfg, transport, "durable-crash-"+suffix, jrn1, sig1, seds1, nil)
	if err != nil {
		return run, err
	}

	// Settled before the crash: the quick interactives and the
	// hopeless rejections.
	if err := submitDurableSettled(m1, cfg); err != nil {
		close1()
		return run, err
	}

	// Open a dirty window ending far past the crash point and park one
	// batch request in it (the rest of the batch settled above, before
	// the window opened): the crash must catch a live carbon park.
	ctx1, crash := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	sig1.anchor(m1.Now() + 600) // dirty until long after the crash
	wg.Add(1)
	go func() {
		defer wg.Done()
		m1.Do(ctx1, middleware.Request{Service: "compute", Ops: cfg.Ops, Class: LiveClassBatch, Deferrable: true})
	}()
	if err := awaitParked(m1, 1); err != nil {
		crash()
		wg.Wait()
		close1()
		return run, err
	}

	// One interactive request is mid-execution (leased, never to
	// settle) when the master dies.
	wg.Add(1)
	go func() {
		defer wg.Done()
		m1.Do(ctx1, middleware.Request{Service: "stall", Ops: cfg.Ops, Class: LiveClassInteractive})
	}()
	select {
	case <-stallStarted:
	case <-time.After(10 * time.Second):
		crash()
		wg.Wait()
		close1()
		return run, fmt.Errorf("stalled request never reached a SED")
	}

	// The crash: the journal handle dies first (kill -9 — no settle,
	// no sync, so the leased and parked lifecycles stay incomplete on
	// disk), then every in-flight lifecycle is torn down. The stall is
	// released before the transport closes — the TCP endpoint drains
	// in-flight handlers on Close — which also means the dead master's
	// request finishes EXECUTING on the executor: lease-based redo is
	// at-least-once execution with exactly-once booking, and the books
	// asserted below prove the duplicate never lands.
	jrn1.Abandon()
	crash()
	close(stallRelease)
	wg.Wait()
	close1()

	// --- Interrupted, incarnation 2: recover, replay, finish ---
	jrn2, err := journal.Open(crashPath, journal.Options{})
	if err != nil {
		return run, err
	}
	for _, e := range jrn2.Pending() {
		switch e.State {
		case journal.StateLeased:
			run.LeasedAtCrash++
			run.RedoFrom = e.SED
		case journal.StateDeferred:
			run.DeferredAtCrash++
		}
	}
	sig2 := &liveStepSignal{dirtyG: cfg.DirtyG, cleanG: cfg.CleanG} // clean: the window died with incarnation 1
	var redoMu sync.Mutex
	// The executors survived the master's death: in-process the SED
	// objects carry straight over; on TCP their daemons are re-served
	// and re-dialed by the new incarnation.
	m2, close2, err := durableMaster(cfg, transport, "durable-restart-"+suffix, jrn2, sig2, seds1,
		func(req middleware.Request, server string) {
			if req.Service == "stall" {
				redoMu.Lock()
				run.RedoTo = server
				redoMu.Unlock()
			}
		})
	if err != nil {
		jrn2.Close()
		return run, err
	}
	st, err := m2.Replay(context.Background())
	if err != nil {
		close2()
		jrn2.Close()
		return run, err
	}
	// The deferred entry replays in the background (Replay never waits
	// behind a carbon window); the restarted grid is clean, so draining
	// it here is what proves the park survived the crash.
	if err := m2.ReplayWait(context.Background()); err != nil {
		close2()
		jrn2.Close()
		return run, err
	}
	run.Replay = st
	run.Interrupted = *m2.Finalize()
	run.JournalStats = jrn2.Stats()
	close2()
	if err := jrn2.Close(); err != nil {
		return run, err
	}
	return run, nil
}

// durableSEDs builds the two executors, both offering "compute" (sleep
// ops/flops) and "stall" (block until release closes — the request the
// crash catches mid-execution).
func durableSEDs(cfg DurableConfig, sig *liveStepSignal, release <-chan struct{}, started chan<- uint64) ([]*middleware.SED, error) {
	var seds []*middleware.SED
	for _, spec := range []struct {
		name         string
		flops, watts float64
	}{
		{"lean", cfg.LeanFlops, cfg.LeanWatts},
		{"hungry", cfg.HungryFlops, cfg.HungryWatts},
	} {
		sed, err := liveSED(spec.name, spec.flops, spec.watts, sig, nil, nil)
		if err != nil {
			return nil, err
		}
		if err := sed.Register(middleware.Service{
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
		}); err != nil {
			return nil, err
		}
		seds = append(seds, sed)
	}
	return seds, nil
}

// submitDurableSettled drives the requests that settle BEFORE the
// crash: the quick interactives and the hopeless rejections.
func submitDurableSettled(m *middleware.Master, cfg DurableConfig) error {
	ctx := context.Background()
	for i := 0; i < cfg.Interactive; i++ {
		if _, err := m.Do(ctx, middleware.Request{Service: "compute", Ops: cfg.Ops, Class: LiveClassInteractive}); err != nil {
			return fmt.Errorf("interactive %d: %w", i, err)
		}
	}
	for i := 0; i < cfg.Batch-1; i++ {
		if _, err := m.Do(ctx, middleware.Request{Service: "compute", Ops: cfg.Ops, Class: LiveClassBatch, Deferrable: true}); err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
	}
	for i := 0; i < cfg.Hopeless; i++ {
		_, err := m.Do(ctx, middleware.Request{Service: "compute", Ops: cfg.Ops, Class: LiveClassHopeless})
		if err == nil {
			return fmt.Errorf("hopeless request %d was admitted", i)
		}
		if !errors.Is(err, middleware.ErrRejected) {
			return fmt.Errorf("hopeless request %d: %w", i, err)
		}
	}
	return nil
}

// submitDurableMix drives the FULL mix to completion — the control
// run's workload: everything submitDurableSettled covers plus the two
// requests the interrupted run crashes on (one more batch, one more
// interactive — service "stall" resolves instantly there because the
// control's release channel is pre-closed).
func submitDurableMix(m *middleware.Master, cfg DurableConfig, stallService bool) error {
	if err := submitDurableSettled(m, cfg); err != nil {
		return err
	}
	ctx := context.Background()
	if _, err := m.Do(ctx, middleware.Request{Service: "compute", Ops: cfg.Ops, Class: LiveClassBatch, Deferrable: true}); err != nil {
		return fmt.Errorf("final batch: %w", err)
	}
	svc := "compute"
	if stallService {
		svc = "stall"
	}
	if _, err := m.Do(ctx, middleware.Request{Service: svc, Ops: cfg.Ops, Class: LiveClassInteractive}); err != nil {
		return fmt.Errorf("final interactive: %w", err)
	}
	return nil
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
