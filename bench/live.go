package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"greensched/internal/budget"
	"greensched/internal/carbon"
	"greensched/internal/cluster"
	"greensched/internal/core"
	"greensched/internal/journal"
	"greensched/internal/middleware"
	"greensched/internal/obs"
	"greensched/internal/power"
	"greensched/internal/powerd"
	"greensched/internal/sched"
	"greensched/internal/sla"
)

// liveSpec is one live-master workload.
type liveSpec struct {
	name string
	// clients is the closed-loop client count: the machine's CPUs when
	// the clients themselves are the bottleneck, 8 when they mostly
	// wait on a sleeping solve or an fsync.
	clients int
	// ladder says the open-loop ladder runs (traced mode only: its
	// results are layer metrics of the generator).
	ladder bool
	// fleet builds the SEDs and wires them under the deployment.
	fleet func(d *deployment) error
	// deviceFleet, when set, is the variant of the fleet that waits on
	// the storage device (so it is driven by the 8 waiting clients). Its
	// numbers follow the device's mood, so they are layer metrics (a
	// closed loop and the ladder, traced mode only) and never gate a
	// change.
	deviceFleet func(d *deployment) error
}

const (
	liveService = "compute"
	liveOps     = 1e9
	// learnPerSED is the learning phase: requests per SED before load.
	learnPerSED = 16
)

var cpuClients = runtime.GOMAXPROCS(0)

const waitClients = 8

var (
	liveInproc  = liveSpec{name: "live-inproc", clients: cpuClients, fleet: fleetPaperTree}
	liveTCP     = liveSpec{name: "live-tcp", clients: waitClients, ladder: true, fleet: fleetTCP}
	liveJournal = liveSpec{name: "live-journal", clients: cpuClients, ladder: true,
		fleet: journalFleet(journal.Options{NoSync: true}), deviceFleet: journalFleet(journal.Options{})}
	livePowerd = liveSpec{name: "live-powerd", clients: cpuClients, fleet: fleetPowerd}
)

func runLiveInproc(p params) (*outcome, error)  { return runLive(liveInproc, p) }
func runLiveTCP(p params) (*outcome, error)     { return runLive(liveTCP, p) }
func runLiveJournal(p params) (*outcome, error) { return runLive(liveJournal, p) }
func runLivePowerd(p params) (*outcome, error)  { return runLive(livePowerd, p) }

// liveCatalog prices the two classes the generator mixes; with instant
// or millisecond solves every deadline is met, so the ledger must show
// exactly the sum of the values of what completed.
var liveCatalog = sla.Catalog{
	sla.ClassInteractive: {Name: sla.ClassInteractive, RelDeadlineSec: 60, ValueUSD: 2, Curve: sla.HardDrop{}},
	sla.ClassBatch:       {Name: sla.ClassBatch, ValueUSD: 0.05, Curve: sla.Flat{}},
}

// cleanGrid never crosses the carbon interceptor's dirty threshold, so
// deferrable requests pay the check but are never parked.
var cleanGrid = carbon.Constant{G: 60, R: 0.8}

// deployment is one built master with its fleet and its books.
type deployment struct {
	spec    liveSpec
	p       params
	rec     *recorder // nil: the bare program, no decorator mounted
	workDir string

	master   *middleware.Master
	tracker  *budget.Tracker
	dir      *middleware.MapDirectory
	children []middleware.Child // the master's direct children
	sedCount int
	remote   bool

	extraICs []middleware.Interceptor // fleet-specific master interceptors (name "power")
	jrn      *journal.Journal
	jrnPath  string
	powerCli *powerd.Client
	powerSrv *powerd.Server

	closers []func() error

	nextID atomic.Uint64
	shards []bookShard
}

// bookShard is one generator lane: its random stream and its share of
// the benchmark's own books, which the checks compare with the
// program's.
type bookShard struct {
	mu  sync.Mutex
	rng *rand.Rand
	books
}

// books is what the generator saw happen to the requests it sent.
type books struct {
	attempted int
	completed int
	rejected  int
	failed    int
	earnedUSD float64
	energyJ   float64
}

// build constructs a deployment: fleet, master stack, master.
func build(spec liveSpec, p params, rec *recorder) (*deployment, error) {
	d := &deployment{spec: spec, p: p, rec: rec, dir: middleware.NewMapDirectory()}
	var err error
	d.workDir, err = os.MkdirTemp(p.OutDir, spec.name+"-")
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, func() error { return os.RemoveAll(d.workDir) })
	fail := func(err error) (*deployment, error) {
		d.close()
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	if err := spec.fleet(d); err != nil {
		return fail(err)
	}
	d.tracker, err = budget.NewTracker(1e12, 3600)
	if err != nil {
		return fail(err)
	}
	stack := []struct {
		name string
		ic   middleware.Interceptor
	}{
		{"obs", &middleware.ObsInterceptor{Registry: obs.NewRegistry()}},
		{"sla", &middleware.SLAInterceptor{
			Config:    &sla.Config{Catalog: liveCatalog, Admission: &sla.Admission{Margin: 1}},
			BestFlops: 1e10,
		}},
		{"carbon", &middleware.CarbonInterceptor{Signal: cleanGrid, DirtyG: 330, MaxDeferSec: 10, PollSec: 0.02}},
		{"budget", &middleware.BudgetInterceptor{Tracker: d.tracker}},
	}
	var ics []middleware.Interceptor
	for i, s := range stack {
		ics = append(ics, d.rec.interceptor(s.name, s.ic, i == 0))
	}
	for _, ic := range d.extraICs {
		ics = append(ics, d.rec.interceptor("power", ic, false))
	}
	opts := []middleware.Option{
		middleware.WithName(spec.name),
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
		middleware.WithInterceptors(ics...),
		middleware.WithTransport(d.dir),
		middleware.WithChildren(d.children...),
	}
	if d.jrn != nil {
		opts = append(opts, middleware.WithJournal(d.jrn))
	}
	d.master, err = middleware.NewMaster(opts...)
	if err != nil {
		return fail(err)
	}
	d.closers = append(d.closers, d.master.Close)

	lanes := spec.clients
	d.shards = make([]bookShard, lanes)
	for i := range d.shards {
		d.shards[i].rng = rand.New(rand.NewSource(p.Seed*1000 + int64(i)))
	}
	// Dial: one estimation round trip through every direct child makes
	// the lazy connections (TCP endpoints, the sidecar socket) now.
	for _, c := range d.children {
		if _, err := c.Estimate(context.Background(), middleware.Request{Service: liveService, Ops: liveOps}); err != nil {
			return fail(fmt.Errorf("dialing %s: %w", c.Name(), err))
		}
	}
	return d, nil
}

// close tears the deployment down, last built first.
func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]() //nolint:errcheck // teardown of a finished run
	}
	d.closers = nil
}

// newSED builds one SED serving `solve`, with the given power
// interceptor and a site carbon tag, and mounts it: SED-layer
// decorators directly around it, a dispatch decorator in the directory.
func (d *deployment) newSED(name string, slots int, powerIC middleware.Interceptor, bootSec, bootW float64,
	solve func(context.Context, middleware.Request) ([]byte, error)) (*middleware.SED, error) {
	sed, err := middleware.NewSED(middleware.SEDConfig{
		Name: name, Slots: slots, BootSec: bootSec, BootPowerW: bootW,
		Interceptors: []middleware.Interceptor{powerIC, &middleware.CarbonInterceptor{Signal: cleanGrid}},
	})
	if err != nil {
		return nil, err
	}
	if err := sed.Register(middleware.Service{Name: liveService, Solve: solve}); err != nil {
		return nil, err
	}
	d.sedCount++
	return sed, nil
}

func meter(watts float64) middleware.Interceptor {
	return &middleware.MeterInterceptor{Meter: func() (float64, bool) { return watts, true }}
}

func instantSolve(context.Context, middleware.Request) ([]byte, error) { return nil, nil }

func sleepSolve(ctx context.Context, _ middleware.Request) ([]byte, error) {
	time.Sleep(time.Millisecond)
	return nil, ctx.Err()
}

// mountSED registers the SED in the master's directory and returns it as
// a child, both behind SED-layer decorators.
func (d *deployment) mountSED(sed *middleware.SED) middleware.Child {
	d.dir.Add(sed.Name(), d.rec.solver(layerDispatch, sed.Name(), d.rec.solver(layerSED, sed.Name(), sed)))
	return d.rec.child(layerSED, sed)
}

// attachLocal mounts in-process SEDs directly under the master.
func (d *deployment) attachLocal(seds []*middleware.SED) {
	for _, sed := range seds {
		d.children = append(d.children, d.rec.child(layerAgent, d.mountSED(sed)))
	}
}

// fleetPaperTree is the paper's hierarchy: a local agent per Table I
// cluster, four SEDs each, sized and metered from the cluster catalog.
func fleetPaperTree(d *deployment) error {
	for _, cl := range []string{"orion", "sagittaire", "taurus"} {
		agent, err := middleware.NewAgent(cl, sched.New(sched.GreenPerf), 0)
		if err != nil {
			return err
		}
		for _, node := range cluster.NewNodes(cl, 4) {
			sed, err := d.newSED(node.Name, node.Cores, meter(node.PeakW), node.BootSec, node.BootW, instantSolve)
			if err != nil {
				return err
			}
			agent.Attach(d.mountSED(sed))
		}
		d.children = append(d.children, d.rec.child(layerAgent, agent))
	}
	return nil
}

// leanHungry builds the two-SED fleet the other workloads share.
func (d *deployment) leanHungry(powerIC func(name string, watts float64) middleware.Interceptor,
	solve func(context.Context, middleware.Request) ([]byte, error)) ([]*middleware.SED, error) {
	var seds []*middleware.SED
	for _, n := range []struct {
		name  string
		watts float64
	}{{"lean", 60}, {"hungry", 400}} {
		sed, err := d.newSED(n.name, 4, powerIC(n.name, n.watts), 0, 0, solve)
		if err != nil {
			return nil, err
		}
		seds = append(seds, sed)
	}
	return seds, nil
}

func localMeter(_ string, watts float64) middleware.Interceptor { return meter(watts) }

// fleetTCP puts each SED behind a middleware.Serve endpoint on loopback
// and hands the master middleware.Dial handles.
func fleetTCP(d *deployment) error {
	seds, err := d.leanHungry(localMeter, sleepSolve)
	if err != nil {
		return err
	}
	d.remote = true
	for _, sed := range seds {
		ep, err := middleware.Serve("127.0.0.1:0", d.rec.child(layerSED, sed), d.rec.solver(layerSED, sed.Name(), sed))
		if err != nil {
			return err
		}
		d.closers = append(d.closers, ep.Close)
		rem := middleware.Dial(sed.Name(), ep.Addr())
		d.closers = append(d.closers, rem.Close)
		d.children = append(d.children, d.rec.child(layerAgent, rem))
		d.dir.Add(sed.Name(), d.rec.solver(layerDispatch, sed.Name(), rem))
	}
	return nil
}

// journalFleet mounts a write-ahead log in the work directory. The
// measured workload opens it with NoSync: the sandbox's disk answers an
// fsync in about 95 us or about 165 us for minutes at a time, which
// moved the synced workload's throughput by 40% between two sets of one
// commit — a gate on that would be a gate on the disk. The journal's own
// cost (encoding, framing, write calls, its mutex) stays in the
// end-to-end numbers; the device-bound behaviour is journalFleet with
// real fsync, reported as journal.synced_* and the ladder.
func journalFleet(opts journal.Options) func(d *deployment) error {
	return func(d *deployment) error {
		seds, err := d.leanHungry(localMeter, instantSolve)
		if err != nil {
			return err
		}
		d.attachLocal(seds)
		d.jrnPath = filepath.Join(d.workDir, "dispatch.wal")
		d.jrn, err = journal.Open(d.jrnPath, opts)
		if err != nil {
			return err
		}
		d.closers = append(d.closers, d.jrn.Close)
		return nil
	}
}

// fleetPowerd serves the SEDs' watts from a powerd sidecar on a unix
// socket; SEDs and the master mount the client as in the live study.
func fleetPowerd(d *deployment) error {
	table := power.StaticSource{"lean": 60, "hungry": 400}
	// A relative socket path keeps it under the unix-socket length limit
	// however deep the checkout sits.
	addr := "unix:" + filepath.Join(d.workDir, "powerd.sock")
	var err error
	d.powerSrv, err = powerd.Serve(addr, d.rec.source(layerPowerServer, table), powerd.Options{})
	if err != nil {
		return err
	}
	d.closers = append(d.closers, d.powerSrv.Close)
	d.powerCli, err = powerd.NewClient(powerd.Config{Addr: addr, Fallback: table, Logf: func(string, ...any) {}})
	if err != nil {
		return err
	}
	d.closers = append(d.closers, d.powerCli.Close)
	src := d.rec.source(layerPowerClient, d.powerCli)
	seds, err := d.leanHungry(func(string, float64) middleware.Interceptor {
		return &middleware.ExternalPowerInterceptor{Source: src}
	}, instantSolve)
	if err != nil {
		return err
	}
	d.attachLocal(seds)
	d.extraICs = append(d.extraICs, &middleware.ExternalPowerInterceptor{Source: src})
	return nil
}

// do sends one generated request through Master.Do on a lane and books
// the outcome on the benchmark's side.
func (d *deployment) do(lane int) bool {
	sh := &d.shards[lane%len(d.shards)]
	sh.mu.Lock()
	req := middleware.Request{
		ID: d.nextID.Add(1), Service: liveService, Ops: liveOps,
		Pref: core.UserPref(sh.rng.Float64()*1.8 - 0.9),
	}
	value := 0.05
	if sh.rng.Float64() < 0.2 {
		req.Class, value = sla.ClassInteractive, 2
	} else {
		req.Class, req.Deferrable = sla.ClassBatch, true
	}
	sh.mu.Unlock()

	var resp middleware.Response
	var err error
	if d.rec != nil && d.rec.sampled(req.ID) {
		d.rec.span(req.ID, 0, layerMaster, "do", func(id uint64) {
			req.ParentSpan = id
			resp, err = d.master.Do(context.Background(), req)
		})
	} else {
		resp, err = d.master.Do(context.Background(), req)
	}

	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.attempted++
	switch {
	case err == nil:
		sh.completed++
		sh.earnedUSD += value
		sh.energyJ += resp.EnergyJ
	case errors.Is(err, middleware.ErrRejected):
		sh.rejected++
	default:
		sh.failed++
	}
	return err == nil
}

// warm runs the learning phase and a stretch of closed-loop load, and
// returns the throughput it saw (requests a second), from which the
// measured windows size their sample buffers.
func (d *deployment) warm() (float64, error) {
	for i := 0; i < learnPerSED*d.sedCount; i++ {
		if !d.do(0) {
			return 0, fmt.Errorf("%s: learning request %d failed", d.spec.name, i)
		}
	}
	load := time.Second
	if d.p.Tiny {
		load = 50 * time.Millisecond
	}
	c := runClosed(newWallClock(), d.spec.clients, load, 0, d.do)
	return float64(len(c.LatUs)) / c.Window.Seconds(), nil
}

// expect is how many requests a window of that length should complete
// at the given rate.
func expect(rate float64, window time.Duration) int { return int(rate * window.Seconds()) }

// totals folds the lanes.
func (d *deployment) totals() (t books) {
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		t.attempted += sh.attempted
		t.completed += sh.completed
		t.rejected += sh.rejected
		t.failed += sh.failed
		t.earnedUSD += sh.earnedUSD
		t.energyJ += sh.energyJ
		sh.mu.Unlock()
	}
	return t
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// checkBooks compares the program's books with the benchmark's own and
// closes the journal to recover it. It must run after the last request.
func (d *deployment) checkBooks(o *outcome) {
	name := d.spec.name
	if d.rec != nil {
		name += " (traced)"
	}
	t := d.totals()
	if d.p.breakBooks {
		t.completed-- // the self-test's dropped completion
	}
	res := d.master.Finalize()
	if res.Completed != t.attempted-t.failed-t.rejected || res.Completed != t.completed {
		o.fail("%s: master completed %d, generator saw %d completed of %d attempted (%d failed, %d rejected)",
			name, res.Completed, t.completed, t.attempted, t.failed, t.rejected)
	}
	if res.SLA == nil {
		o.fail("%s: no SLA ledger on the result", name)
	} else if relDiff(res.SLA.EarnedUSD, t.earnedUSD) > 1e-9 {
		o.fail("%s: ledger earned $%.6f, completed requests were worth $%.6f", name, res.SLA.EarnedUSD, t.earnedUSD)
	}
	if spent := d.tracker.Spent(); relDiff(spent, t.energyJ) > 1e-9 {
		o.fail("%s: budget tracker metered %.9g J, responses carried %.9g J", name, spent, t.energyJ)
	}
	if d.powerCli != nil {
		if st := d.powerCli.Stats(); st.Fallbacks != 0 || st.BreakerOpen {
			o.fail("%s: sidecar client fell back (%d fallbacks, breaker open %v): not a sidecar number", name, st.Fallbacks, st.BreakerOpen)
		}
	}
	if d.jrn != nil {
		st := d.jrn.Stats()
		if st.Pending != 0 {
			o.fail("%s: journal left %d pending lifecycles", name, st.Pending)
		}
		if err := d.jrn.Close(); err != nil {
			o.fail("%s: closing journal: %v", name, err)
		}
		f, err := os.Open(d.jrnPath)
		if err != nil {
			o.fail("%s: reopening journal: %v", name, err)
			return
		}
		defer f.Close()
		rec, err := journal.Recover(f)
		if err != nil {
			o.fail("%s: recovering journal: %v", name, err)
			return
		}
		settled := rec.Counts[journal.StateCompleted]
		// A rotation compacts settled lifecycles away, so only an
		// unrotated log holds every completion.
		exact := st.Rotations == 0
		if rec.Truncated || len(rec.Incomplete()) != 0 || settled > res.Completed || (exact && settled != res.Completed) {
			o.fail("%s: recovered WAL has %d completions for %d completed (%d incomplete, truncated %v, %d rotations)",
				name, settled, res.Completed, len(rec.Incomplete()), rec.Truncated, st.Rotations)
		}
		o.note("%s: WAL recovered: %d completions settled exactly once, %d rotations, fs %s", name, settled, st.Rotations, fsType(d.workDir))
	}
}

// closedMetrics derives the end-to-end numbers of one closed-loop window.
func closedMetrics(c closedResult) (opsPerS, p50, p99 float64) {
	done := float64(len(c.LatUs))
	return done / c.Window.Seconds(), percentile(c.LatUs, 0.5), percentile(c.LatUs, 0.99)
}

func runLive(spec liveSpec, p params) (*outcome, error) {
	middleware.SeedRand(uint64(p.Seed))

	// Set-up, several times; the last deployment is the one measured.
	var d *deployment
	var setups []float64
	for begin := time.Now(); moreSetups(len(setups), begin, p.Tiny); {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		next, err := build(spec, p, nil)
		if err != nil {
			return nil, err
		}
		d = next
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.close()
	rate, err := d.warm()
	if err != nil {
		return nil, err
	}
	o := &outcome{Correct: true, Metrics: map[string]float64{}}
	if p.Trace {
		return o, liveLayers(o, d, rate)
	}
	o.Metrics["setup_s"] = median(setups)
	return o, liveEndToEnd(o, d, rate)
}

// window is --seconds scaled by num/den.
func (p params) window(num, den int) time.Duration {
	return time.Duration(p.Seconds*float64(time.Second)) * time.Duration(num) / time.Duration(den)
}

// liveEndToEnd is the measured phase of an untraced run: one closed-loop
// window on the bare deployment, then the books.
func liveEndToEnd(o *outcome, d *deployment, rate float64) error {
	spec, window := d.spec, d.p.window(1, 1)
	var mem0, mem1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem0)
	cpu0 := cpuTime()
	c := runClosed(newWallClock(), spec.clients, window, expect(rate, window), d.do)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&mem1)
	rss := peakRSSMiB()
	d.checkBooks(o)
	if len(c.LatUs) == 0 {
		return fmt.Errorf("%s: no request completed in the window", spec.name)
	}
	ops, p50, p99 := closedMetrics(c)
	done := float64(len(c.LatUs))
	o.Attempted, o.Failed, o.Samples = c.Attempted, c.Failed, len(c.LatUs)
	o.Metrics["ops_per_s"] = ops
	o.Metrics["lat_p50_us"] = p50
	o.Metrics["lat_p99_us"] = p99
	o.Metrics["cpu_us_per_op"] = float64(cpu.Microseconds()) / done
	o.Metrics["allocs_per_op"] = float64(mem1.Mallocs-mem0.Mallocs) / done
	o.Metrics["peak_rss_mb"] = rss
	tailPct, tail := tailPercentile(c.LatUs)
	o.note("%s: %d closed-loop clients for %.1f s: %d completed of %d, p50 %.1f us, p99 %.1f us, p%.4g %.1f us",
		spec.name, spec.clients, c.Window.Seconds(), len(c.LatUs), c.Attempted, p50, p99, tailPct, tail)
	return nil
}

// liveLayers is a traced run. Phase A measures the bare deployment d
// (the tracing overhead's baseline) and runs the ladder where the
// workload has one; phase B rebuilds the deployment with decorators
// mounted and measures the layers.
func liveLayers(o *outcome, d *deployment, rate float64) error {
	spec, p := d.spec, d.p
	clk := newWallClock()
	m := zeroLayerMetrics()
	o.Metrics = m

	bare := runClosed(clk, spec.clients, p.window(1, 4), expect(rate, p.window(1, 4)), d.do)
	o.Attempted, o.Failed = bare.Attempted, bare.Failed
	bareOps, _, _ := closedMetrics(bare)
	if spec.ladder {
		if err := ladderPhase(o, d, clk); err != nil {
			return err
		}
	}
	d.checkBooks(o)
	d.close()

	// One request leaves a root span, three per master interceptor and
	// two per SED or agent it touches; keep every k-th request so that
	// the window's spans fit the cap.
	window := p.window(3, 8)
	spansPerReq := 3 + 3*5 + 2*(d.sedCount+len(d.children))
	rec := newRecorder(uint64(bareOps*window.Seconds()*float64(spansPerReq)/(spanCap*0.9)) + 1)
	rec.on.Store(false)
	d, err := build(spec, p, rec)
	if err != nil {
		return err
	}
	defer d.close()
	if rate, err = d.warm(); err != nil {
		return err
	}
	var jrn0 journal.Stats
	if d.jrn != nil {
		jrn0 = d.jrn.Stats()
	}
	var pw0 powerd.Stats
	if d.powerCli != nil {
		pw0 = d.powerCli.Stats()
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	rec.start()
	c := runClosed(clk, spec.clients, window, expect(rate, window), d.do)
	rec.on.Store(false)
	runtime.ReadMemStats(&mem1)
	o.Attempted += c.Attempted
	o.Failed += c.Failed
	o.Samples = len(c.LatUs)
	done := float64(len(c.LatUs))
	if done == 0 {
		return fmt.Errorf("%s: no request completed in the traced window", spec.name)
	}

	if d.jrn != nil {
		st := d.jrn.Stats()
		m["journal.appends_per_op"] = float64(st.Appended-jrn0.Appended) / done
		m["journal.bytes_per_op"] = float64(st.BytesTotal-jrn0.BytesTotal) / done
		m["journal.rotations"] = float64(st.Rotations - jrn0.Rotations)
	}
	spans, dropped := rec.recorded()
	b := analyseLive(spans, d.remote)
	if d.powerCli != nil {
		st := d.powerCli.Stats()
		reads := rec.powerReads.Load()
		m["powerd.reads_per_op"] = float64(reads) / done
		m["powerd.client.read_us"] = b.clientReadUs
		m["powerd.server.model_us"] = b.serverReadUs
		m["powerd.hop_us"] = b.clientReadUs - b.serverReadUs
		m["powerd.retries"] = math.Max(0, float64(st.Requests-pw0.Requests)-float64(reads))
		m["powerd.cache_hits"] = float64(st.CacheHits - pw0.CacheHits)
		m["powerd.fallbacks"] = float64(st.Fallbacks - pw0.Fallbacks)
		if served := d.powerSrv.Requests(); served < uint64(reads) {
			o.fail("%s: sidecar served %d requests, client decorator counted %d readings", spec.name, served, reads)
		}
	}
	d.checkBooks(o)

	m["middleware.master.do_us"] = b.doUs
	m["middleware.master.self_us"] = b.selfUs
	var icUs float64
	for name, us := range b.interceptors {
		m["middleware.interceptor."+name+".us"] = us
		icUs += us
	}
	m["middleware.agent.estimate_us"] = b.estimateUs
	if n := rec.elections.Load(); n > 0 {
		m["middleware.agent.candidates"] = float64(rec.candidates.Load()) / float64(n)
	}
	m["middleware.dispatch.solve_us"] = b.dispatchUs
	m["middleware.sed.estimate_us"] = b.sedEstUs
	m["middleware.sed.solve_us"] = b.sedSolveUs
	if n := rec.dispatches.Load(); n > 0 {
		m["middleware.sed.queue_us"] = float64(rec.sedQueueNs.Load()) / 1e3 / float64(n)
		m["middleware.sed.exec_us"] = float64(rec.sedExecNs.Load()) / 1e3 / float64(n)
	}
	if d.remote {
		m["middleware.transport.estimate_wire_us"] = b.estWireUs
		m["middleware.transport.solve_wire_us"] = b.solveWireUs
		m["middleware.transport.inflight_max"] = float64(rec.inflightPeak.Load())
	}
	runtimeMetrics(m, &mem0, &mem1)
	tracedOps, _, _ := closedMetrics(c)
	tailPct, tail := tailPercentile(c.LatUs)
	m["loadgen.samples"] = done
	m["loadgen.lat_tail_us"] = tail
	m["loadgen.lat_tail_pct"] = tailPct
	m["bench.trace_overhead_share"] = (bareOps - tracedOps) / bareOps
	if err := runProbes(m, p); err != nil {
		return err
	}
	o.SpanFile = filepath.Join(p.OutDir, spec.name+".spans.jsonl")
	if err := rec.writeJSONL(o.SpanFile); err != nil {
		return err
	}

	parts := icUs + b.estimateUs + b.dispatchUs + b.selfUs
	o.note("%s traced: do %.2f us = interceptors %.2f + estimate %.2f + dispatch %.2f + master self %.2f (residual %.3f us, %.2f%%) over %d sampled requests; %s",
		spec.name, b.doUs, icUs, b.estimateUs, b.dispatchUs, b.selfUs, b.doUs-parts, 100*(b.doUs-parts)/b.doUs, b.requests, traceSampling(rec))
	if dropped > 0 {
		o.note("%s: %d spans past the %d-span cap were dropped", spec.name, dropped, spanCap)
	}
	o.note("%s: bare %.0f op/s, traced %.0f op/s", spec.name, bareOps, tracedOps)
	return nil
}

// ladderPhase climbs the open-loop ladder against the bare deployment —
// or, when the workload has a device-bound variant, against that,
// after a closed-loop window on it.
func ladderPhase(o *outcome, d *deployment, clk clock) error {
	spec, p, m := d.spec, d.p, o.Metrics
	if spec.deviceFleet != nil {
		dev := spec
		dev.fleet, dev.clients = spec.deviceFleet, waitClients
		var err error
		if d, err = build(dev, p, nil); err != nil {
			return err
		}
		defer d.close()
		rate, err := d.warm()
		if err != nil {
			return err
		}
		c := runClosed(clk, dev.clients, p.window(1, 4), expect(rate, p.window(1, 4)), d.do)
		o.Attempted += c.Attempted
		o.Failed += c.Failed
		m["journal.synced_ops_per_s"], m["journal.synced_p50_us"], _ = closedMetrics(c)
		o.note("%s with real fsync on %s: %.0f op/s, p50 %.0f us at %d clients (device-bound: a layer metric, not a gate)",
			spec.name, fsType(d.workDir), m["journal.synced_ops_per_s"], m["journal.synced_p50_us"], dev.clients)
		defer d.checkBooks(o)
	}
	var lanes atomic.Int64
	lad := newPacer(clk).ladder(ladderRates, p.window(1, 8), func() bool { return d.do(int(lanes.Add(1))) })
	reportLadder(o, m, spec.name, lad)
	for _, r := range lad.Rungs {
		o.Attempted += r.Sent
		o.Failed += r.Failed
	}
	return nil
}

// reportLadder fills the loadgen.open_* metrics and notes every rung.
func reportLadder(o *outcome, m map[string]float64, name string, lad ladderResult) {
	m["loadgen.open_max_rate"] = lad.MaxRate
	var late []float64
	for _, r := range lad.Rungs {
		late = append(late, r.LateUs...)
		verdict := "pass"
		switch {
		case r.Cutoff:
			verdict = "cut off"
		case !r.Pass():
			verdict = "fail"
		}
		o.note("%s ladder %5.0f/s: sent %d, %d within %v, %d failed, %d in flight at end: %s (p50 %.0f us from due time)",
			name, r.Rate, r.Sent, r.WithinLimit, ladderLimit, r.Failed, r.InflightEnd, verdict, percentile(r.LatUs, 0.5))
	}
	if ref, ok := lad.ref(); ok && len(ref.LatUs) > 0 {
		m["loadgen.open_p50_us"] = percentile(ref.LatUs, 0.5)
		m["loadgen.open_p90_us"] = percentile(ref.LatUs, 0.9)
		m["loadgen.open_p99_us"] = percentile(ref.LatUs, 0.99)
	}
	late = sortedCopy(late)
	if len(late) > 0 {
		m["loadgen.late_p99_us"] = percentile(late, 0.99)
		m["loadgen.late_max_us"] = late[len(late)-1]
	}
}
