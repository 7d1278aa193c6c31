package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"greensched/internal/budget"
	"greensched/internal/cluster"
	"greensched/internal/journal"
	"greensched/internal/middleware"
	"greensched/internal/obs"
	"greensched/internal/power"
	"greensched/internal/powerd"
	"greensched/internal/report"
	"greensched/internal/sched"
	"greensched/internal/sla"
)

// The live composed study is the proof that the middleware.Interceptor
// stack gives the LIVE hierarchy the same composable machinery the
// sim.Module stack gave the simulator: SLA admission + a real-dollar
// ledger, carbon-window deferral of deferrable requests, and budget
// metering, all mounted on one Master — and behaving the same whether
// the SEDs are in-process or behind the TCP/gob transport. It runs on
// the wall clock with deliberately tiny durations (sub-second grid
// windows, millisecond solves) so it doubles as a CI smoke test.

// Transport names of the compared deployments.
const (
	LiveTransportInProcess = "IN-PROCESS"
	LiveTransportTCP       = "TCP"
)

// transportLabel maps a transport name to its metric label value.
func transportLabel(transport string) string {
	if transport == LiveTransportTCP {
		return "tcp"
	}
	return "in-process"
}

// Live SLA class names (the catalog is deployment-specific: real
// wall-clock deadlines, not the simulator's hour-scale ones).
const (
	LiveClassInteractive = "interactive"
	LiveClassBatch       = "batch"
	LiveClassHopeless    = "hopeless"
)

// LiveComposedConfig parameterizes the live composition study.
type LiveComposedConfig struct {
	// Request mix: Warmup best-effort requests measure the SEDs,
	// Interactive carry a 60 s deadline at $2, Batch are deferrable at
	// $0.05, Hopeless carry a deadline no node can meet (admission
	// must reject every one).
	Warmup      int
	Interactive int
	Batch       int
	Hopeless    int

	// Ops per request; the SEDs of livePlatform "compute" by sleeping
	// Ops/FlopsPerCore.
	Ops float64

	// The grid: dirty (DirtyG) for DirtyWindowSec after the start,
	// clean (CleanG) afterwards. Deferrable work waits out the dirty
	// window, bounded by MaxDeferSec.
	CleanG         float64
	DirtyG         float64
	DirtyWindowSec float64
	MaxDeferSec    float64
	PollSec        float64

	// BudgetJ over BudgetHorizonSec is generous by default: the study
	// asserts exact metering, not starvation.
	BudgetJ          float64
	BudgetHorizonSec float64

	// Concurrency, when positive, bounds each master's in-flight
	// admissions (middleware.WithConcurrency): client fan-out beyond it
	// queues at the semaphore instead of stampeding the election path.
	// Zero means unbounded — the pre-PR-8 behaviour.
	Concurrency int

	// Registry, when set, receives fleet telemetry: each transport's
	// master mounts an ObsInterceptor FIRST in its stack, publishing
	// into this shared registry under a transport label
	// ({transport="in-process"} / {transport="tcp"}), so one /metrics
	// endpoint covers the whole study.
	Registry *obs.Registry
	// SpanW, when set, turns on distributed tracing: both masters (and,
	// on the TCP transport, the remotes and the SED daemons themselves)
	// emit their request span trees into one JSONL stream — the input
	// to obs.AnalyzeSpans / `greensched spans`.
	SpanW io.Writer
	// JournalPath, when set, mounts a crash-safe dispatch journal
	// (internal/journal) under each master: the in-process run appends
	// to JournalPath+".in-process.wal" and the TCP run to
	// JournalPath+".tcp.wal". Inspect either file afterwards with
	// `greensched journal FILE`; with Registry also set, the
	// greensched_journal_* metrics appear on /metrics.
	JournalPath string

	// PowerAddr, when set, routes every power reading through an
	// external powerd sidecar at this address ("unix:/path" or
	// "host:port"): the SEDs mount ExternalPowerInterceptor instead of
	// a local meter, the master attributes from sidecar readings, and
	// with Registry set the greensched_power_* families appear on
	// /metrics. The client falls back to livePlatform's peak watts if
	// the sidecar is unreachable, so a dead sidecar slows nothing down —
	// it just shows up in the fallback counters.
	PowerAddr string
}

// DefaultLiveComposedConfig returns the calibrated sub-second
// scenario.
func DefaultLiveComposedConfig() LiveComposedConfig {
	return LiveComposedConfig{
		Warmup:      4,
		Interactive: 4,
		Batch:       4,
		Hopeless:    1,
		Ops:         4e6,
		CleanG:      60,
		DirtyG:      600,
		// The dirty window is long enough that batch submitted at
		// start provably waits, short enough to keep the study fast.
		DirtyWindowSec:   0.4,
		MaxDeferSec:      10,
		PollSec:          0.02,
		BudgetJ:          1e6,
		BudgetHorizonSec: 60,
	}
}

// ScaleTasks rescales the live request mix so Warmup + Interactive +
// Batch + Hopeless approaches total while preserving proportions (each
// stream keeps at least one request, so warmup measurement, the express
// lane, deferral and admission-reject all still fire). total <= 0
// leaves the config untouched.
func (c *LiveComposedConfig) ScaleTasks(total int) {
	if total <= 0 {
		return
	}
	base := c.Warmup + c.Interactive + c.Batch + c.Hopeless
	if base <= 0 {
		return
	}
	scale := float64(total) / float64(base)
	c.Warmup = scaleCount(c.Warmup, scale)
	c.Interactive = scaleCount(c.Interactive, scale)
	c.Batch = scaleCount(c.Batch, scale)
	c.Hopeless = scaleCount(c.Hopeless, scale)
	c.BudgetJ *= scale
}

// Validate reports configuration errors.
func (c LiveComposedConfig) Validate() error {
	switch {
	case c.Interactive <= 0 || c.Batch <= 0 || c.Hopeless <= 0:
		return fmt.Errorf("experiments: live study needs interactive, batch and hopeless requests")
	case c.Warmup < 0:
		return fmt.Errorf("experiments: negative warmup")
	case c.Ops <= 0:
		return fmt.Errorf("experiments: live study needs positive ops")
	case c.DirtyG <= c.CleanG || c.CleanG < 0:
		return fmt.Errorf("experiments: dirty intensity %v must exceed clean %v", c.DirtyG, c.CleanG)
	case c.DirtyWindowSec <= 0 || c.MaxDeferSec <= c.DirtyWindowSec:
		return fmt.Errorf("experiments: MaxDeferSec %v must exceed the dirty window %v", c.MaxDeferSec, c.DirtyWindowSec)
	case c.BudgetJ <= 0 || c.BudgetHorizonSec <= 0:
		return fmt.Errorf("experiments: live study needs a positive budget and horizon")
	case c.Concurrency < 0:
		return fmt.Errorf("experiments: negative concurrency %d", c.Concurrency)
	}
	return nil
}

// livePlatform is the fleet of both live drills: the hungry node is
// faster and thirstier.
var livePlatform = cluster.MustPlatform([]cluster.NodeSpec{
	{Name: "lean", Cores: 2, FlopsPerCore: 1e9, PeakW: 80},
	{Name: "hungry", Cores: 2, FlopsPerCore: 4e9, PeakW: 320},
})

// liveFleet builds livePlatform's SEDs for the named transport.
func liveFleet(transport string, spec middleware.FleetSpec) (*middleware.Fleet, error) {
	spec.Platform = livePlatform
	spec.TCP = transport == LiveTransportTCP
	return middleware.NewFleet(spec)
}

// liveStack is the master stack of both live drills, over a fresh
// budget tracker. SLA admission comes first: it resolves terms and
// rejects before anything is parked, and its resolved deadlines keep
// urgent traffic out of the carbon window that follows; budget
// metering comes last. Finalize runs in reverse, so the ledger summary
// divides by the grams and joules the later interceptors published.
//
// The SLA catalog has real wall-clock deadlines rather than the
// simulator's hour-scale ones. Its curves are timing-robust: HardDrop
// earns full value anywhere before the generous interactive deadline
// and Flat earns regardless, so a run that finishes the same work later
// books the same dollars. The hopeless deadline sits far below the
// best-case execution time of ops on livePlatform's fastest core, so
// admission rejects it deterministically.
func liveStack(ops float64, grid *middleware.CarbonInterceptor, budgetJ, horizonSec float64) ([]middleware.Interceptor, error) {
	tracker, err := budget.NewTracker(budgetJ, horizonSec)
	if err != nil {
		return nil, err
	}
	best := 0.0
	for _, n := range livePlatform.Nodes {
		best = max(best, n.FlopsPerCore)
	}
	catalog := sla.Catalog{
		LiveClassInteractive: {Name: LiveClassInteractive, RelDeadlineSec: 60, ValueUSD: 2, Curve: sla.HardDrop{}},
		LiveClassBatch:       {Name: LiveClassBatch, ValueUSD: 0.05, Curve: sla.Flat{}},
		LiveClassHopeless:    {Name: LiveClassHopeless, RelDeadlineSec: ops / best / 100, ValueUSD: 1, Curve: sla.HardDrop{}},
	}
	return []middleware.Interceptor{
		&middleware.SLAInterceptor{Config: &sla.Config{Catalog: catalog, Admission: &sla.Admission{Margin: 1}}, BestFlops: best},
		grid,
		&middleware.BudgetInterceptor{Tracker: tracker},
	}, nil
}

// submitEach runs n copies of req on m, one after another; what names
// them in an error.
func submitEach(m *middleware.Master, n int, req middleware.Request, what string) error {
	for i := 0; i < n; i++ {
		if _, err := m.Do(context.Background(), req); err != nil {
			return fmt.Errorf("%s %d: %w", what, i, err)
		}
	}
	return nil
}

// rejectHopeless submits n hopeless requests of ops each: admission
// must refuse every one (the master's Rejected counter keeps the
// tally).
func rejectHopeless(m *middleware.Master, n int, ops float64) error {
	for i := 0; i < n; i++ {
		_, err := m.Do(context.Background(), middleware.Request{Service: "compute", Ops: ops, Class: LiveClassHopeless})
		if err == nil {
			return fmt.Errorf("hopeless request %d was admitted", i)
		}
		if !errors.Is(err, middleware.ErrRejected) {
			return fmt.Errorf("hopeless request %d: %w", i, err)
		}
	}
	return nil
}

// ExpectedEarnedUSD is the dollar total the ledger must show when
// every admitted request completes on time.
func (c LiveComposedConfig) ExpectedEarnedUSD() float64 {
	return 2*float64(c.Interactive) + 0.05*float64(c.Batch)
}

// liveStepSignal is the study's grid: dirty until dirtyUntil (on the
// master clock), clean afterwards. The study anchors the window right
// before it submits the deferrable batch — the submissions land while
// the grid is provably dirty no matter how long the warmup phase took
// on a loaded machine.
type liveStepSignal struct {
	mu         sync.Mutex
	dirtyUntil float64
	dirtyG     float64
	cleanG     float64
}

// dirtyAt reports whether t falls inside the dirty window.
func (s *liveStepSignal) dirtyAt(t float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return t < s.dirtyUntil
}

// anchor opens a dirty window ending at t.
func (s *liveStepSignal) anchor(t float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dirtyUntil = t
}

// IntensityAt implements carbon.Signal.
func (s *liveStepSignal) IntensityAt(t float64) float64 {
	if s.dirtyAt(t) {
		return s.dirtyG
	}
	return s.cleanG
}

// RenewableAt implements carbon.Signal.
func (s *liveStepSignal) RenewableAt(t float64) float64 {
	if s.dirtyAt(t) {
		return 0.1
	}
	return 0.8
}

// MeanIntensity implements carbon.Signal exactly for the single step.
func (s *liveStepSignal) MeanIntensity(t0, t1 float64) float64 {
	if t1 <= t0 {
		return s.IntensityAt(t0)
	}
	s.mu.Lock()
	edge := s.dirtyUntil
	s.mu.Unlock()
	if t1 <= edge {
		return s.dirtyG
	}
	if t0 >= edge {
		return s.cleanG
	}
	return (s.dirtyG*(edge-t0) + s.cleanG*(t1-edge)) / (t1 - t0)
}

// LiveComposedRun is one transport's outcome.
type LiveComposedRun struct {
	Transport string
	// Result is the master's finalized counters and the summaries the
	// interceptor stack published.
	Result middleware.LiveResult
	// ExpectedEarnedUSD is the dollar total implied by the request mix.
	ExpectedEarnedUSD float64
	// PowerStats is the sidecar client's counter snapshot when
	// Config.PowerAddr routed power through a powerd sidecar.
	PowerStats *powerd.Stats
}

// LiveComposedResult bundles the compared transports.
type LiveComposedResult struct {
	Config LiveComposedConfig
	Runs   []LiveComposedRun // fixed order: IN-PROCESS, TCP
}

// Run returns the named transport's outcome, or false.
func (r *LiveComposedResult) Run(transport string) (LiveComposedRun, bool) {
	return byTransport(r.Runs, transport)
}

// RunLiveComposedStudy executes the composed live scenario over both
// transports.
func RunLiveComposedStudy(cfg LiveComposedConfig) (*LiveComposedResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	runs, err := overTransports("live composed", func(transport string) (LiveComposedRun, error) {
		return runLiveComposed(cfg, transport)
	})
	if err != nil {
		return nil, err
	}
	return &LiveComposedResult{Config: cfg, Runs: runs}, nil
}

// liveTransports are the deployments every live drill compares, in
// the order it runs them.
var liveTransports = []string{LiveTransportInProcess, LiveTransportTCP}

// overTransports runs one live drill per transport, in order.
func overTransports[R any](study string, drill func(transport string) (R, error)) ([]R, error) {
	var runs []R
	for _, transport := range liveTransports {
		run, err := drill(transport)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %s: %w", study, transport, err)
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// byTransport returns the named transport's outcome from runs that
// overTransports produced, or false.
func byTransport[R any](runs []R, transport string) (R, bool) {
	for i, t := range liveTransports {
		if t == transport && i < len(runs) {
			return runs[i], true
		}
	}
	var zero R
	return zero, false
}

// runLiveComposed runs the scenario on one transport.
func runLiveComposed(cfg LiveComposedConfig, transport string) (LiveComposedRun, error) {
	sig := &liveStepSignal{dirtyG: cfg.DirtyG, cleanG: cfg.CleanG}
	spec := middleware.FleetSpec{Carbon: sig}
	// One span writer serves every emitter (runs are sequential and the
	// writer itself is concurrency-safe), so master, transport and SED
	// spans stitch in one stream.
	if cfg.SpanW != nil {
		spec.Spans = obs.NewSpanWriter(cfg.SpanW)
	}
	// Optional external power: one sidecar client per transport run,
	// falling back to the platform's peak watts when the sidecar is
	// unreachable.
	var powerCli *powerd.Client
	if cfg.PowerAddr != "" {
		fallback := power.StaticSource{}
		for _, n := range livePlatform.Nodes {
			fallback[n.Name] = n.PeakW
		}
		var err error
		powerCli, err = powerd.NewClient(powerd.Config{Addr: cfg.PowerAddr, Fallback: fallback})
		if err != nil {
			return LiveComposedRun{}, err
		}
		defer powerCli.Close()
		spec.Power = powerCli
	}
	fleet, err := liveFleet(transport, spec)
	if err != nil {
		return LiveComposedRun{}, err
	}

	ics, err := liveStack(cfg.Ops, &middleware.CarbonInterceptor{
		Signal:      sig,
		DirtyG:      (cfg.CleanG + cfg.DirtyG) / 2,
		MaxDeferSec: cfg.MaxDeferSec, PollSec: cfg.PollSec,
	}, cfg.BudgetJ, cfg.BudgetHorizonSec)
	if err != nil {
		return LiveComposedRun{}, err
	}
	if powerCli != nil {
		ics = append(ics, &middleware.ExternalPowerInterceptor{
			Source:   powerCli,
			Registry: cfg.Registry,
			Labels:   map[string]string{"transport": transportLabel(transport)},
		})
	}
	// Observability goes first: it must see every submission before
	// admission can refuse it, and reverse-order Finalize then runs it
	// last, over the totals the whole stack published.
	if cfg.Registry != nil {
		ics = append([]middleware.Interceptor{&middleware.ObsInterceptor{
			Registry: cfg.Registry,
			Labels:   map[string]string{"transport": transportLabel(transport)},
		}}, ics...)
	}

	opts := []middleware.Option{
		middleware.WithName("live-" + transport),
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
		middleware.WithInterceptors(ics...),
	}
	if cfg.Concurrency > 0 {
		opts = append(opts, middleware.WithConcurrency(cfg.Concurrency))
	}
	if cfg.JournalPath != "" {
		jrn, err := journal.Open(cfg.JournalPath+"."+transportLabel(transport)+".wal", journal.Options{})
		if err != nil {
			return LiveComposedRun{}, err
		}
		defer jrn.Close()
		opts = append(opts, middleware.WithJournal(jrn))
	}
	master, err := fleet.Deploy(opts...)
	if err != nil {
		return LiveComposedRun{}, err
	}
	defer master.Close()
	ctx := context.Background()

	// Learning phase: best-effort warmups measure the SEDs.
	if err := submitEach(master.Master, cfg.Warmup, middleware.Request{Service: "compute", Ops: cfg.Ops}, "warmup"); err != nil {
		return LiveComposedRun{}, err
	}

	// Deferrable batch goes in first, while the grid is provably
	// dirty: the window is anchored to open NOW and the carbon
	// interceptor must hold every one of them until it closes.
	sig.anchor(master.Now() + cfg.DirtyWindowSec)
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Batch+cfg.Interactive)
	submit := func(req middleware.Request) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := master.Do(ctx, req); err != nil {
				errs <- err
			}
		}()
	}
	for i := 0; i < cfg.Batch; i++ {
		submit(middleware.Request{Service: "compute", Ops: cfg.Ops, Class: LiveClassBatch, Deferrable: true})
	}
	// Interactive traffic rides the express lane: deadlines are never
	// parked behind the green window.
	for i := 0; i < cfg.Interactive; i++ {
		submit(middleware.Request{Service: "compute", Ops: cfg.Ops, Class: LiveClassInteractive})
	}
	// Hopeless requests: admission must refuse each one.
	err = rejectHopeless(master.Master, cfg.Hopeless, cfg.Ops)
	wg.Wait()
	close(errs)
	if err != nil {
		return LiveComposedRun{}, err
	}
	for err := range errs {
		return LiveComposedRun{}, err
	}

	res := master.Finalize()
	run := LiveComposedRun{
		Transport:         transport,
		Result:            *res,
		ExpectedEarnedUSD: cfg.ExpectedEarnedUSD(),
	}
	if powerCli != nil {
		st := powerCli.Stats()
		run.PowerStats = &st
	}
	return run, nil
}

// Table renders the per-transport comparison.
func (r *LiveComposedResult) Table() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Live interceptor stack: %d interactive + %d deferrable batch + %d hopeless over a %.2gs dirty window",
			r.Config.Interactive, r.Config.Batch, r.Config.Hopeless, r.Config.DirtyWindowSec),
		Headers: []string{"Transport", "Done", "Rejected", "Deferred", "Wait (s)",
			"Earned ($)", "Energy (J)", "CO2 (g)", "Budget (J)"},
	}
	for _, run := range r.Runs {
		earned := 0.0
		if run.Result.SLA != nil {
			earned = run.Result.SLA.EarnedUSD
		}
		t.AddRow(run.Transport,
			fmt.Sprintf("%d", run.Result.Completed),
			fmt.Sprintf("%d", run.Result.Rejected),
			fmt.Sprintf("%d", run.Result.Deferred),
			fmt.Sprintf("%.2f", run.Result.DeferredSec),
			fmt.Sprintf("%.2f", earned),
			fmt.Sprintf("%.2f", run.Result.EnergyJ),
			fmt.Sprintf("%.3f", run.Result.CO2Grams),
			fmt.Sprintf("%.2f", run.Result.BudgetSpentJ),
		)
	}
	return t
}

// Render writes the table plus the study's headline invariants.
func (r *LiveComposedResult) Render(w io.Writer) error {
	if err := r.Table().Render(w); err != nil {
		return err
	}
	for _, run := range r.Runs {
		if run.Result.SLA == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s ledger (expected $%.2f):\n", run.Transport, run.ExpectedEarnedUSD)
		if err := run.Result.SLA.Render(w); err != nil {
			return err
		}
	}
	for _, run := range r.Runs {
		if st := run.PowerStats; st != nil {
			fmt.Fprintf(w, "\n%s external power: %d sidecar requests, %d errors, %d fallbacks (breaker open: %v)\n",
				run.Transport, st.Requests, st.Errors, st.Fallbacks, st.BreakerOpen)
		}
	}
	fmt.Fprintf(w, "\nSLA admission, the revenue ledger, carbon-window deferral and budget metering all ran on the LIVE serving path, identically over %s and %s transports\n",
		LiveTransportInProcess, LiveTransportTCP)
	return nil
}
