package main

import (
	"context"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"greensched/internal/estvec"
	"greensched/internal/middleware"
	"greensched/internal/obs"
	"greensched/internal/power"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/workload"
)

// Layers a span can belong to. The names are the per-layer metric
// prefixes, so a span file and the metric table use one vocabulary.
const (
	layerMaster      = "middleware.master"
	layerInterceptor = "middleware.interceptor"
	layerAgent       = "middleware.agent"
	layerDispatch    = "middleware.dispatch"
	layerSED         = "middleware.sed"
	layerPowerClient = "powerd.client"
	layerPowerServer = "powerd.server"
	layerSim         = "sim"
	layerSimModule   = "sim.module"
)

// spanCap bounds the spans one traced run keeps: enough for a few
// thousand whole requests, small enough that the JSONL file stays in
// the tens of megabytes. Busy workloads sample whole requests (every
// k-th request ID) so the bound holds without truncating a trace.
const spanCap = 1 << 17

// spanRec is the in-memory form of one span: fixed size, no pointers
// beyond the two interned strings, so recording is one atomic add and a
// struct store into a preallocated slice.
type spanRec struct {
	trace, id, parent uint64
	start, dur        int64 // ns since the recorder's epoch
	layer, name       string
}

// recorder collects the spans and boundary counts of one traced run.
// The zero sampling step records nothing; decorators are only mounted
// when a recorder exists, so the untraced run never sees this type.
type recorder struct {
	epoch time.Time
	every uint64 // record request IDs divisible by this
	// on gates recording: live runs switch it on for the measured
	// window only, so learning and warm-up traffic stays out.
	on     atomic.Bool
	spans  []spanRec
	n      atomic.Int64
	nextID atomic.Uint64

	// Boundary counts, taken on every request (not only sampled ones).
	candidates   atomic.Int64 // Σ len(list) seen by OnElect
	elections    atomic.Int64
	powerReads   atomic.Int64
	hookCalls    atomic.Int64
	lessCalls    atomic.Int64
	sedQueueNs   atomic.Int64 // Σ Response.QueueSec
	sedExecNs    atomic.Int64 // Σ Response.ExecSec
	dispatches   atomic.Int64
	inflightPeak atomic.Int64 // max concurrent server-side Solve on one endpoint
}

func newRecorder(every uint64) *recorder {
	if every == 0 {
		every = 1
	}
	r := &recorder{epoch: time.Now(), every: every, spans: make([]spanRec, spanCap)}
	r.on.Store(true)
	return r
}

// sampled reports whether the request's spans are kept.
func (r *recorder) sampled(id uint64) bool { return id%r.every == 0 && r.on.Load() }

// start opens the measured window: counts taken so far (learning phase,
// warm-up) are discarded and recording switches on.
func (r *recorder) start() {
	for _, c := range []*atomic.Int64{&r.candidates, &r.elections, &r.powerReads, &r.hookCalls, &r.lessCalls,
		&r.sedQueueNs, &r.sedExecNs, &r.dispatches, &r.inflightPeak} {
		c.Store(0)
	}
	r.on.Store(true)
}

func (r *recorder) newID() uint64 { return r.nextID.Add(1) }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add stores one span; spans past the cap are dropped and counted so a
// truncated trace is reported instead of silently analysed.
func (r *recorder) add(s spanRec) {
	i := r.n.Add(1) - 1
	if i < int64(len(r.spans)) {
		r.spans[i] = s
	}
}

// span times fn and records it under the given identity.
func (r *recorder) span(trace, parent uint64, layer, name string, fn func(id uint64)) {
	id := r.newID()
	start := time.Now()
	fn(id)
	r.add(spanRec{trace: trace, id: id, parent: parent, layer: layer, name: name,
		start: r.since(start), dur: int64(time.Since(start))})
}

// recorded returns the kept spans and how many were dropped at the cap.
func (r *recorder) recorded() (spans []spanRec, dropped int64) {
	n := r.n.Load()
	if n > int64(len(r.spans)) {
		return r.spans, n - int64(len(r.spans))
	}
	return r.spans[:n], 0
}

// writeJSONL writes the spans in the obs.Span schema so `greensched
// spans FILE` reads them: Name is the operation, Src the layer.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := obs.NewSpanWriter(f)
	spans, _ := r.recorded()
	for _, s := range spans {
		w.Emit(obs.Span{TraceID: s.trace, SpanID: s.id, Parent: s.parent, Name: s.name, Src: s.layer,
			Start: float64(s.start) / 1e9, DurSec: float64(s.dur) / 1e9})
	}
	return f.Close()
}

// ---- live decorators -------------------------------------------------

// tracedInterceptor times the three per-request hooks of one master
// interceptor. Every optional surface the master probes for is
// forwarded, so the wrapped stack behaves exactly like the bare one.
type tracedInterceptor struct {
	inner middleware.Interceptor
	name  string
	rec   *recorder
	// first marks the head of the stack, which also counts how many
	// candidates each election returned.
	first bool
}

func (t *tracedInterceptor) Init(m middleware.Mount) error { return t.inner.Init(m) }

func (t *tracedInterceptor) OnSubmit(ctx context.Context, now float64, req *middleware.Request) (err error) {
	if !t.rec.sampled(req.ID) {
		return t.inner.OnSubmit(ctx, now, req)
	}
	t.rec.span(req.ID, req.ParentSpan, layerInterceptor, t.name+".OnSubmit", func(uint64) {
		err = t.inner.OnSubmit(ctx, now, req)
	})
	return err
}

func (t *tracedInterceptor) WrapEstimation(base middleware.EstimationFunc) middleware.EstimationFunc {
	return t.inner.WrapEstimation(base)
}

func (t *tracedInterceptor) OnElect(now float64, req middleware.Request, server string, list estvec.List) {
	if t.first {
		t.rec.candidates.Add(int64(len(list)))
		t.rec.elections.Add(1)
	}
	if !t.rec.sampled(req.ID) {
		t.inner.OnElect(now, req, server, list)
		return
	}
	t.rec.span(req.ID, req.ParentSpan, layerInterceptor, t.name+".OnElect", func(uint64) {
		t.inner.OnElect(now, req, server, list)
	})
}

func (t *tracedInterceptor) OnComplete(rec middleware.RequestRecord) {
	if !t.rec.sampled(rec.Req.ID) {
		t.inner.OnComplete(rec)
		return
	}
	t.rec.span(rec.Req.ID, rec.Req.ParentSpan, layerInterceptor, t.name+".OnComplete", func(uint64) {
		t.inner.OnComplete(rec)
	})
}

func (t *tracedInterceptor) Finalize(res *middleware.LiveResult) { t.inner.Finalize(res) }

// Metrics forwards ObsInterceptor's registry (the master serves the
// stage histogram from it); nil for every other interceptor, which the
// master treats as "no registry".
func (t *tracedInterceptor) Metrics() *obs.Registry {
	if m, ok := t.inner.(interface{ Metrics() *obs.Registry }); ok {
		return m.Metrics()
	}
	return nil
}

// Rebook forwards middleware.Rebooker.
func (t *tracedInterceptor) Rebook(rec middleware.RequestRecord) {
	if r, ok := t.inner.(middleware.Rebooker); ok {
		r.Rebook(rec)
	}
}

// DeferralStats forwards middleware.DeferralReporter.
func (t *tracedInterceptor) DeferralStats(now float64) middleware.DeferralStats {
	if d, ok := t.inner.(middleware.DeferralReporter); ok {
		return d.DeferralStats(now)
	}
	return middleware.DeferralStats{}
}

// PowerW forwards middleware.PowerSource.
func (t *tracedInterceptor) PowerW() (float64, bool) {
	if p, ok := t.inner.(middleware.PowerSource); ok {
		return p.PowerW()
	}
	return 0, false
}

// tracedChild times Estimate as the level above sees it. The span's ID
// rides down on Request.ParentSpan — across the gob wire too — so the
// next decorator below nests under it.
type tracedChild struct {
	inner middleware.Child
	layer string
	rec   *recorder
}

func (t *tracedChild) Name() string { return t.inner.Name() }

func (t *tracedChild) Estimate(ctx context.Context, req middleware.Request) (list estvec.List, err error) {
	if !t.rec.sampled(req.ID) {
		return t.inner.Estimate(ctx, req)
	}
	t.rec.span(req.ID, req.ParentSpan, t.layer, "estimate:"+t.inner.Name(), func(id uint64) {
		req.ParentSpan = id
		list, err = t.inner.Estimate(ctx, req)
	})
	return list, err
}

// tracedSolver times Solve. On the master side (layerDispatch) it also
// sums the queue and execution seconds the response carries; on the SED
// side it tracks how many solves one endpoint runs at once.
type tracedSolver struct {
	inner    middleware.Solver
	name     string
	layer    string
	rec      *recorder
	inflight atomic.Int64
}

func (t *tracedSolver) Solve(ctx context.Context, req middleware.Request) (resp middleware.Response, err error) {
	if t.layer == layerSED {
		n := t.inflight.Add(1)
		defer t.inflight.Add(-1)
		for {
			peak := t.rec.inflightPeak.Load()
			if n <= peak || t.rec.inflightPeak.CompareAndSwap(peak, n) {
				break
			}
		}
	}
	if t.rec.sampled(req.ID) {
		t.rec.span(req.ID, req.ParentSpan, t.layer, "solve:"+t.name, func(id uint64) {
			req.ParentSpan = id
			resp, err = t.inner.Solve(ctx, req)
		})
	} else {
		resp, err = t.inner.Solve(ctx, req)
	}
	if t.layer == layerDispatch && err == nil {
		t.rec.dispatches.Add(1)
		t.rec.sedQueueNs.Add(int64(resp.QueueSec * 1e9))
		t.rec.sedExecNs.Add(int64(resp.ExecSec * 1e9))
	}
	return resp, err
}

// tracedSource times one side of the powerd hop. Readings carry no
// request identity, so their spans are unparented and every k-th one is
// kept; the call count is exact.
type tracedSource struct {
	inner power.Source
	layer string
	rec   *recorder
	calls atomic.Uint64
}

func (t *tracedSource) NodePowerW(node string, metrics []string, values []float64) (w power.Watts, ok bool) {
	n := t.calls.Add(1)
	if t.layer == layerPowerClient {
		t.rec.powerReads.Add(1)
	}
	if !t.rec.sampled(n) {
		return t.inner.NodePowerW(node, metrics, values)
	}
	t.rec.span(0, 0, t.layer, "read:"+node, func(uint64) {
		w, ok = t.inner.NodePowerW(node, metrics, values)
	})
	return w, ok
}

// LastReading forwards power.ReadingSource, which the master-side power
// interceptor probes for.
func (t *tracedSource) LastReading(node string) (power.Watts, float64, bool) {
	if rs, ok := t.inner.(power.ReadingSource); ok {
		return rs.LastReading(node)
	}
	return 0, 0, false
}

// ---- sim decorators --------------------------------------------------

// tracedModule times every hook of one sim module. All calls are timed
// (the kernel's self time is the run minus their sum, so none may be
// skipped); spans are kept for sampled tasks only. None of the modules
// the benchmark stacks implements sim.LifecycleObserver, so that
// surface is not forwarded — doing so unconditionally would switch the
// kernel's event emission on.
type tracedModule struct {
	inner sim.Module
	name  string
	rec   *recorder
	run   *uint64 // ID of the enclosing run span
	ns    int64
}

func (t *tracedModule) timed(task uint64, keep bool, hook string, fn func()) {
	t.rec.hookCalls.Add(1)
	start := time.Now()
	fn()
	d := int64(time.Since(start))
	t.ns += d
	if keep {
		t.rec.add(spanRec{trace: task, id: t.rec.newID(), parent: *t.run, layer: layerSimModule,
			name: t.name + "." + hook, start: t.rec.since(start), dur: d})
	}
}

func (t *tracedModule) Init(r *sim.Runner) error { return t.inner.Init(r) }

func (t *tracedModule) OnArrival(now float64, task *workload.Task) {
	id := uint64(task.ID) + 1
	t.timed(id, t.rec.sampled(id), "OnArrival", func() { t.inner.OnArrival(now, task) })
}

func (t *tracedModule) WrapPolicy(now float64, task workload.Task, base sched.Policy) (p sched.Policy) {
	id := uint64(task.ID) + 1
	t.timed(id, t.rec.sampled(id), "WrapPolicy", func() { p = t.inner.WrapPolicy(now, task, base) })
	return p
}

func (t *tracedModule) OnFinish(rec sim.TaskRecord) {
	id := uint64(rec.ID) + 1
	t.timed(id, t.rec.sampled(id), "OnFinish", func() { t.inner.OnFinish(rec) })
}

func (t *tracedModule) OnTick(now float64, ctl sim.Control) {
	t.timed(0, true, "OnTick", func() { t.inner.OnTick(now, ctl) })
}

func (t *tracedModule) Finalize(res *sim.Result) {
	t.timed(0, true, "Finalize", func() { t.inner.Finalize(res) })
}

// countingPolicy counts comparisons. It is never timed per call: a
// clock read costs more than the comparison it would measure.
type countingPolicy struct {
	inner sched.Policy
	rec   *recorder
}

func (c countingPolicy) Name() string { return c.inner.Name() }

func (c countingPolicy) Less(a, b *estvec.Vector) bool {
	c.rec.lessCalls.Add(1)
	return c.inner.Less(a, b)
}

// ---- span analysis ---------------------------------------------------

// liveBreakdown is the per-request mean cost of each layer over the
// sampled requests of a traced live run, in microseconds.
type liveBreakdown struct {
	requests     int
	doUs         float64
	selfUs       float64
	interceptors map[string]float64 // by interceptor name
	estimateUs   float64            // top-level estimate fan-out, as the master sees it (union)
	dispatchUs   float64
	sedEstUs     float64 // per call
	sedSolveUs   float64 // per call
	estWireUs    float64 // per remote estimate: client side − server side
	solveWireUs  float64
	clientReadUs float64 // per reading
	serverReadUs float64
}

// analyseLive folds the spans of a traced live run. remote says the
// fleet sits behind middleware.Remote handles; only then is the gap
// between a master-side span and the SED-side span under it a wire.
func analyseLive(spans []spanRec, remote bool) liveBreakdown {
	b := liveBreakdown{interceptors: map[string]float64{}}
	byID := make(map[uint64]*spanRec, len(spans))
	roots := map[uint64]*spanRec{}
	children := map[uint64][]*spanRec{} // parent span → direct children
	for i := range spans {
		s := &spans[i]
		byID[s.id] = s
		if s.layer == layerMaster {
			roots[s.trace] = s
		}
	}
	var sedEst, sedSolve, estWire, solveWire, cliRead, srvRead []float64
	for i := range spans {
		s := &spans[i]
		switch s.layer {
		case layerPowerClient:
			cliRead = append(cliRead, float64(s.dur))
			continue
		case layerPowerServer:
			srvRead = append(srvRead, float64(s.dur))
			continue
		case layerMaster:
			continue
		}
		children[s.parent] = append(children[s.parent], s)
		if s.layer != layerSED {
			continue
		}
		parent, ok := byID[s.parent]
		if strings.HasPrefix(s.name, "solve:") {
			sedSolve = append(sedSolve, float64(s.dur))
			if remote && ok && parent.layer == layerDispatch {
				solveWire = append(solveWire, float64(parent.dur-s.dur))
			}
		} else {
			sedEst = append(sedEst, float64(s.dur))
			if remote && ok && parent.layer == layerAgent {
				estWire = append(estWire, float64(parent.dur-s.dur))
			}
		}
	}
	var do, self, est, disp float64
	ic := map[string]float64{}
	for _, root := range roots {
		kids := children[root.id]
		if len(kids) == 0 {
			continue // the request's children fell past the span cap
		}
		b.requests++
		do += float64(root.dur)
		var estKids []*spanRec
		for _, k := range kids {
			switch k.layer {
			case layerInterceptor:
				name, _, _ := strings.Cut(k.name, ".")
				ic[name] += float64(k.dur)
			case layerAgent:
				estKids = append(estKids, k)
			case layerDispatch:
				disp += float64(k.dur)
			}
		}
		est += float64(covered(estKids))
		self += float64(root.dur - covered(kids))
	}
	if b.requests > 0 {
		n := float64(b.requests) * 1e3 // ns → µs per request
		b.doUs, b.selfUs, b.estimateUs, b.dispatchUs = do/n, self/n, est/n, disp/n
		for name, ns := range ic {
			b.interceptors[name] = ns / n
		}
	}
	b.sedEstUs = mean(sedEst) / 1e3
	b.sedSolveUs = mean(sedSolve) / 1e3
	b.estWireUs = mean(estWire) / 1e3
	b.solveWireUs = mean(solveWire) / 1e3
	b.clientReadUs = mean(cliRead) / 1e3
	b.serverReadUs = mean(srvRead) / 1e3
	return b
}

// covered returns the length of the union of the spans' intervals: the
// part of the parent's time its children account for, counting time two
// parallel children share once.
func covered(spans []*spanRec) int64 {
	if len(spans) == 0 {
		return 0
	}
	s := append([]*spanRec(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	curStart, curEnd := s[0].start, s[0].start+s[0].dur
	for _, sp := range s[1:] {
		if sp.start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = sp.start, sp.start+sp.dur
			continue
		}
		if end := sp.start + sp.dur; end > curEnd {
			curEnd = end
		}
	}
	return total + curEnd - curStart
}

// The mount helpers below are how a deployment under construction asks
// for its decorators. On a nil recorder (the untraced run) each returns
// its argument unchanged, so the program under test is mounted bare.

func (r *recorder) interceptor(name string, ic middleware.Interceptor, first bool) middleware.Interceptor {
	if r == nil {
		return ic
	}
	return &tracedInterceptor{inner: ic, name: name, rec: r, first: first}
}

func (r *recorder) child(layer string, c middleware.Child) middleware.Child {
	if r == nil {
		return c
	}
	return &tracedChild{inner: c, layer: layer, rec: r}
}

func (r *recorder) solver(layer, name string, s middleware.Solver) middleware.Solver {
	if r == nil {
		return s
	}
	return &tracedSolver{inner: s, name: name, layer: layer, rec: r}
}

func (r *recorder) source(layer string, s power.Source) power.Source {
	if r == nil {
		return s
	}
	return &tracedSource{inner: s, layer: layer, rec: r}
}
