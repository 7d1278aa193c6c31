package middleware

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"greensched/internal/core"
	"greensched/internal/journal"
	"greensched/internal/obs"
	"greensched/internal/sched"
)

// Master is the composed hierarchy root: a MasterAgent plus the
// transport it invokes elected SEDs through and the interceptor stack
// that runs the request lifecycle (OnSubmit → Elect → OnElect → Solve
// → OnComplete, with Finalize at shutdown). It is the live counterpart
// of a sim scenario built with sim.NewScenario + WithModules.
type Master struct {
	*MasterAgent

	dir   Directory
	ics   []Interceptor
	clock func() float64
	sink  *spanSink
	sem   chan struct{}

	jrn          *journal.Journal
	leaseTermSec float64

	nextID    atomic.Uint64
	submitted atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	failed    atomic.Int64

	// Journal-path counters (see WithJournal / Replay); surfaced as
	// greensched_journal_* by ObsInterceptor.
	journalErrs   atomic.Int64
	replays       atomic.Int64
	leaseExpiries atomic.Int64
	redone        atomic.Int64
	// replayWG tracks the background deferred re-submissions Replay
	// launches; ReplayWait drains it.
	replayWG sync.WaitGroup

	// energyBits is the running joule total as math.Float64bits — a
	// CAS loop instead of a mutex, so thousands of concurrent
	// completions don't serialize on the accumulator.
	energyBits atomic.Uint64

	metrics *obs.Server
}

// addEnergy folds one completion's joules into the running total.
func (m *Master) addEnergy(j float64) {
	for {
		old := m.energyBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + j)
		if m.energyBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// EnergyJ is the summed attributed energy of every completion so far.
func (m *Master) EnergyJ() float64 {
	return math.Float64frombits(m.energyBits.Load())
}

// masterConfig is what the functional options assemble.
type masterConfig struct {
	name         string
	policy       sched.Policy
	childTimeout time.Duration
	interceptors []Interceptor
	transport    Directory
	children     []Child
	metricsAddr  string
	spans        *obs.SpanWriter
	concurrency  int
	journal      *journal.Journal
	leaseTermSec float64
}

// Option configures NewMaster.
type Option func(*masterConfig)

// WithName names the master agent (default "master").
func WithName(name string) Option {
	return func(c *masterConfig) { c.name = name }
}

// WithPolicy sets the plug-in election policy (required).
func WithPolicy(p sched.Policy) Option {
	return func(c *masterConfig) { c.policy = p }
}

// WithChildTimeout bounds each child's estimation round trip (see
// Agent.SetChildTimeout).
func WithChildTimeout(d time.Duration) Option {
	return func(c *masterConfig) { c.childTimeout = d }
}

// WithInterceptors appends request-lifecycle interceptors to the
// master's stack; hooks run in the order given.
func WithInterceptors(ics ...Interceptor) Option {
	return func(c *masterConfig) { c.interceptors = append(c.interceptors, ics...) }
}

// WithTransport installs the directory the master resolves elected SED
// names through: a MapDirectory of in-process SEDs, or one of Remote
// handles for a TCP deployment (a Fleet's Deploy builds either). Without
// it the directory is empty.
func WithTransport(dir Directory) Option {
	return func(c *masterConfig) { c.transport = dir }
}

// WithChildren attaches children (SEDs, sub-agents or Remotes) to the
// root agent; the WithTransport directory resolves the SEDs they elect.
func WithChildren(children ...Child) Option {
	return func(c *masterConfig) { c.children = append(c.children, children...) }
}

// WithMetricsAddr starts an observability listener (host:port;
// host:0 picks a free port) serving /metrics, /healthz and
// net/http/pprof for the master's telemetry. It requires an
// ObsInterceptor in the stack — the listener serves that interceptor's
// registry (the first one found, which is shared when several mounts
// share one). The listener's resolved address is MetricsAddr; Close
// shuts it down.
func WithMetricsAddr(addr string) Option {
	return func(c *masterConfig) { c.metricsAddr = addr }
}

// WithSpans turns on distributed tracing: every request's lifecycle is
// emitted as a span tree (submit → admission → elect → estimate →
// dispatch → queue/solve/reply; see the obs.Stage* constants) to the
// writer, and the trace context propagates on the Request — through the
// root agent's estimation fan-out and across the gob wire — so agent,
// transport and SED spans stitch into the same tree. With an
// ObsInterceptor in the stack the master's and root agent's stages also
// feed the greensched_stage_seconds histogram on its registry (the
// histogram is registered and observed whenever a registry is present,
// spans or not).
func WithSpans(w *obs.SpanWriter) Option {
	return func(c *masterConfig) { c.spans = w }
}

// WithConcurrency bounds the master's in-flight request lifecycles to
// n: Do blocks for a slot (respecting ctx) before admission. Zero (the
// default) leaves Do unbounded. The bound is backpressure at the front
// door — the live analogue of the simulator's bounded event queue —
// so a burst of clients queues at the master instead of fanning a
// thousand simultaneous elections into the hierarchy.
func WithConcurrency(n int) Option {
	return func(c *masterConfig) { c.concurrency = n }
}

// NewMaster builds the composed root from functional options. At
// minimum a policy is required; children and interceptors are attached
// in the order given, and every interceptor's Init runs before the
// master accepts work.
func NewMaster(opts ...Option) (*Master, error) {
	cfg := masterConfig{name: "master"}
	for _, opt := range opts {
		opt(&cfg)
	}
	ma, err := NewMasterAgent(cfg.name, cfg.policy)
	if err != nil {
		return nil, err
	}
	if cfg.childTimeout > 0 {
		ma.SetChildTimeout(cfg.childTimeout)
	}

	dir := cfg.transport
	if dir == nil {
		dir = NewMapDirectory()
	}
	ma.Attach(cfg.children...)

	epoch := time.Now()
	clock := func() float64 { return time.Since(epoch).Seconds() }

	if cfg.concurrency < 0 {
		return nil, fmt.Errorf("middleware: master %s: negative concurrency", cfg.name)
	}
	if cfg.leaseTermSec < 0 {
		return nil, fmt.Errorf("middleware: master %s: negative lease term", cfg.name)
	}
	m := &Master{MasterAgent: ma, dir: dir, ics: cfg.interceptors, clock: clock,
		jrn: cfg.journal, leaseTermSec: cfg.leaseTermSec}
	if m.jrn != nil {
		if m.leaseTermSec <= 0 {
			m.leaseTermSec = journal.DefaultLeaseTermSec
		}
		// New traffic must never reuse a journaled lifecycle's ID.
		m.nextID.Store(m.jrn.MaxID())
	}
	if cfg.concurrency > 0 {
		m.sem = make(chan struct{}, cfg.concurrency)
	}
	for _, ic := range m.ics {
		if ic == nil {
			return nil, fmt.Errorf("middleware: master %s: nil interceptor", cfg.name)
		}
		if err := ic.Init(Mount{Master: m}); err != nil {
			return nil, fmt.Errorf("middleware: master %s: %w", cfg.name, err)
		}
	}
	var reg *obs.Registry
	for _, ic := range m.ics {
		if mp, ok := ic.(interface{ Metrics() *obs.Registry }); ok && mp.Metrics() != nil {
			reg = mp.Metrics()
			break
		}
	}
	// The span sink exists whenever there is anywhere for stage data
	// to go: a WithSpans writer, a registry for the stage histogram,
	// or both. The root agent shares the sink, so its estimate stage
	// lands in the same stream and the same histogram.
	m.sink = newSpanSink(ma.Name(), cfg.spans, reg)
	ma.mutate(func(st *agentState) { st.sink = m.sink })
	if cfg.metricsAddr != "" {
		if reg == nil {
			return nil, fmt.Errorf("middleware: master %s: WithMetricsAddr needs an ObsInterceptor in the stack", cfg.name)
		}
		srv, err := obs.ListenAndServe(cfg.metricsAddr, reg)
		if err != nil {
			return nil, fmt.Errorf("middleware: master %s: metrics listener: %w", cfg.name, err)
		}
		m.metrics = srv
	}
	return m, nil
}

// MetricsAddr is the observability listener's resolved host:port, or
// "" when WithMetricsAddr was not used.
func (m *Master) MetricsAddr() string {
	if m.metrics == nil {
		return ""
	}
	return m.metrics.Addr()
}

// Close shuts the master's observability listener down (a no-op
// without one). The interceptor stack itself needs no teardown beyond
// Finalize.
func (m *Master) Close() error {
	if m.metrics == nil {
		return nil
	}
	return m.metrics.Close()
}

// Now returns seconds on the master's clock.
func (m *Master) Now() float64 { return m.clock() }

// Submit runs the full §III-A problem-submission flow through the
// interceptor stack: Do over a request built from the arguments.
func (m *Master) Submit(ctx context.Context, service string, ops float64, pref float64, payload []byte) (Response, error) {
	return m.Do(ctx, Request{Service: service, Ops: ops, Pref: core.UserPref(pref), Payload: payload})
}

// Do runs one request through the lifecycle: OnSubmit hooks in stack
// order (the first error aborts admission), election, OnElect hooks,
// execution on the elected SED through the transport, OnComplete
// hooks. Every outcome — rejection, failure after admission, success —
// settles through the same path: counted (an error wrapping
// ErrRejected as a rejection, any other as a failure), journaled, and
// handed to OnComplete (rec.Err set on failure, so interceptors release
// per-request state). A zero req.ID is assigned from the master's
// sequence.
//
// With tracing on, the lifecycle is emitted as a span tree rooted at
// "submit" — see WithSpans — and every stage feeds
// greensched_stage_seconds when an ObsInterceptor registry is mounted.
//
// With WithJournal mounted, the admission is journaled before the
// hooks run, each dispatch books a lease on the elected SED, and the
// outcome settles the entry — see Replay for the restart path.
func (m *Master) Do(ctx context.Context, req Request) (Response, error) {
	return m.doWith(ctx, req, nil)
}

// doWith is Do with a pre-seeded election exclusion set: Replay uses
// it to redo a journaled lease on a DIFFERENT SED than the one the
// dead master had dispatched to. The lifecycle is admit → elect →
// lease → dispatch → settle.
func (m *Master) doWith(ctx context.Context, req Request, excluded map[string]bool) (Response, error) {
	if m.sem != nil {
		select {
		case m.sem <- struct{}{}:
			defer func() { <-m.sem }()
		case <-ctx.Done():
			return Response{}, ctx.Err()
		}
	}
	if req.ID == 0 {
		req.ID = m.nextID.Add(1)
	}
	m.submitted.Add(1)
	// The admission is durable BEFORE the interceptor stack runs, so a
	// request that crashes while parked inside an OnSubmit hook (carbon
	// deferral) is still replayed. Re-admission of a replayed ID dedups
	// inside the journal.
	m.journalAdmit(req)

	// Trace context is minted here and rides the Request — through the
	// estimation fan-out, across the gob wire, into the SED — so every
	// downstream span stitches to this root by ID alone (no cross-
	// process clock agreement needed; Start is each emitter's clock).
	if m.sink.spans() && req.TraceID == 0 {
		req.TraceID = obs.NewSpanID()
	}
	root := m.sink.begin(obs.StageSubmit, req)
	root.parent = 0
	req = root.under(req)

	if err := m.admit(ctx, &req); err != nil {
		// Earlier hooks may have attached per-request state; the failure
		// record releases it (hooks ignore IDs they never admitted).
		now := m.clock()
		return Response{}, m.settle(RequestRecord{Req: req, Submit: now, Start: now, Finish: now, Err: err}, root)
	}
	rec := RequestRecord{Req: req, Submit: m.clock()}
	rec.Start = rec.Submit

	// The elect span parents the per-level estimate spans (and, through
	// them, transport spans).
	elect := m.sink.begin(obs.StageElect, req)
	server, list, err := m.Elect(ctx, elect.under(req), excluded)
	elect.end(err, "server", server)
	if err != nil {
		rec.Finish, rec.Err = m.clock(), err
		return Response{}, m.settle(rec, root)
	}
	rec.Server, rec.Start = server, m.clock()
	for _, ic := range m.ics {
		ic.OnElect(rec.Start, req, server, list)
	}
	solver, ok := m.dir.Lookup(server)
	if !ok {
		// No lease is booked for a server that cannot be reached.
		rec.Finish, rec.Err = m.clock(), fmt.Errorf("middleware: elected SED %q not in transport", server)
		return Response{}, m.settle(rec, root)
	}

	// Dispatch: the wire crossing plus remote execution. The lease books
	// the elected SED as the request's owner until the term expires.
	// Transport (dial/encode/decode) and SED (queue/solve) spans nest
	// under the dispatch span.
	m.journalLease(req.ID, server)
	rec.Start = m.clock()
	disp := m.sink.begin(obs.StageDispatch, req)
	resp, err := solver.Solve(ctx, disp.under(req))
	endDispatch(disp, server, resp, err)
	rec.Finish, rec.Err = m.clock(), err
	if err != nil {
		return Response{}, m.settle(rec, root)
	}
	rec.Server, rec.ExecSec, rec.EnergyJ = resp.Server, resp.ExecSec, resp.EnergyJ
	return resp, m.settle(rec, root)
}

// admit runs the OnSubmit hooks in stack order as the admission stage;
// the first error aborts it.
func (m *Master) admit(ctx context.Context, req *Request) (err error) {
	if len(m.ics) == 0 {
		return nil
	}
	adm := m.sink.begin(obs.StageAdmission, *req)
	for _, ic := range m.ics {
		if err = ic.OnSubmit(ctx, m.clock(), req); err != nil {
			break
		}
	}
	adm.end(err)
	return err
}

// settle is the one terminal path of a request lifecycle: it counts the
// outcome, settles the journal entry, runs every OnComplete hook and
// ends the root span. It returns rec.Err.
func (m *Master) settle(rec RequestRecord, root stage) error {
	m.count(rec)
	m.journalSettle(rec.Req.ID, rec.Err, rec.Finish, rec.ExecSec, rec.EnergyJ)
	for _, ic := range m.ics {
		ic.OnComplete(rec)
	}
	if !root.traced() {
		root.end(rec.Err)
		return rec.Err
	}
	// A traced root names its request and prices a completion.
	energy := ""
	if rec.Err == nil {
		energy = strconv.FormatFloat(rec.EnergyJ, 'g', -1, 64)
	}
	root.end(rec.Err, "id", strconv.FormatUint(rec.Req.ID, 10), "class", rec.Req.Class,
		"service", rec.Req.Service, "energy_j", energy)
	return rec.Err
}

// outcome classifies a lifecycle's terminal error by the one rule the
// master's counters and its journal share: no error completed, an
// error wrapping ErrRejected rejected, any other error failed.
func outcome(err error) journal.State {
	switch {
	case err == nil:
		return journal.StateCompleted
	case errors.Is(err, ErrRejected):
		return journal.StateRejected
	}
	return journal.StateFailed
}

// count books one outcome on the master's counters, a completion with
// its energy; Replay rebooks settled journal entries through it too.
func (m *Master) count(rec RequestRecord) {
	switch outcome(rec.Err) {
	case journal.StateCompleted:
		m.completed.Add(1)
		m.addEnergy(rec.EnergyJ)
	case journal.StateRejected:
		m.rejected.Add(1)
	default:
		m.failed.Add(1)
	}
}

// endDispatch closes the dispatch stage and reconstructs the SED-side
// stage decomposition from the timings that rode back on the Response:
// queue from dispatch start, solve after it, and reply as the residual
// wire-and-framing time, clipped at zero. The reply residual is only
// visible from the master's side of the wire, so it is always the
// master's span. When the SED emitted its own queue/solve spans
// (resp.Spanned — it shares a span writer) those two are only
// observed, so /metrics is complete either way without duplicate spans.
func endDispatch(disp stage, server string, resp Response, err error) {
	dur := disp.end(err, "server", server)
	if err != nil || disp.sink == nil {
		return
	}
	q, x := resp.QueueSec, resp.ExecSec
	if resp.Spanned {
		disp.sink.observe(obs.StageQueue, q)
		disp.sink.observe(obs.StageSolve, x)
	} else {
		disp.child(obs.StageQueue, resp.Server, disp.start).endAfter(q, nil)
		disp.child(obs.StageSolve, resp.Server, disp.start+q).endAfter(x, nil)
	}
	disp.child(obs.StageReply, "", disp.start+q+x).endAfter(max(dur-q-x, 0), nil)
}

// Finalize assembles the LiveResult: the master's counters first, then
// every interceptor's Finalize in REVERSE stack order (the onion's
// exit path — an early-mounted SLAInterceptor summarizes over the
// grams and joules later interceptors published). Call it when the
// workload drains; calling again re-publishes current totals.
func (m *Master) Finalize() *LiveResult {
	energy := m.EnergyJ()
	res := &LiveResult{
		Submitted: int(m.submitted.Load()),
		Completed: int(m.completed.Load()),
		Rejected:  int(m.rejected.Load()),
		Failed:    int(m.failed.Load()),
		EnergyJ:   energy,
	}
	for i := len(m.ics) - 1; i >= 0; i-- {
		m.ics[i].Finalize(res)
	}
	return res
}

// DeferralStats snapshots a parked carbon-deferral queue.
type DeferralStats struct {
	// Parked counts requests currently waiting out a dirty window.
	Parked int
	// OldestSec is the age of the longest-waiting parked request
	// (0 when nothing is parked).
	OldestSec float64
}

// DeferralReporter is the optional interceptor surface behind
// Master.Deferred. CarbonInterceptor implements it.
type DeferralReporter interface {
	DeferralStats(now float64) DeferralStats
}

// Deferred aggregates the parked carbon-deferral queues across the
// interceptor stack: total parked requests and the age of the oldest.
// A request held back by a dirty-grid window appears here from the
// moment it parks — before its window opens — which is what makes the
// deferral queue observable while Do blocks on it.
func (m *Master) Deferred() DeferralStats {
	now := m.clock()
	var agg DeferralStats
	for _, ic := range m.ics {
		if dr, ok := ic.(DeferralReporter); ok {
			st := dr.DeferralStats(now)
			agg.Parked += st.Parked
			if st.OldestSec > agg.OldestSec {
				agg.OldestSec = st.OldestSec
			}
		}
	}
	return agg
}

// statser is the optional stats surface in-process SEDs expose through
// the transport.
type statser interface {
	Stats() SEDStats
}

// namer is the optional enumeration surface a Directory exposes
// (MapDirectory implements it).
type namer interface {
	Names() []string
}

// remoteStatser is the fallible stats surface Remote handles expose:
// the snapshot crosses the wire (a wireStats round trip), so it can
// fail — deliberately a different signature from statser so in-process
// and remote paths stay distinct.
type remoteStatser interface {
	Stats() (SEDStats, error)
}

// SEDStats aggregates the observability snapshots of every SED the
// transport can enumerate and that exposes stats: in-process SEDs
// directly, Remote handles through a wireStats round trip (an
// unreachable daemon is skipped, not an error — stats are best-effort
// observability, not control flow). Sorted by name.
func (m *Master) SEDStats() []SEDStats {
	dir, ok := m.dir.(namer)
	if !ok {
		return nil
	}
	var out []SEDStats
	for _, name := range dir.Names() {
		solver, ok := m.dir.Lookup(name)
		if !ok {
			continue
		}
		switch st := solver.(type) {
		case statser:
			out = append(out, st.Stats())
		case remoteStatser:
			if s, err := st.Stats(); err == nil {
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
