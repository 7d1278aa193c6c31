// Package middleware is a live, concurrent implementation of the
// DIET-style architecture the paper builds on (§II-A): clients submit
// problems to a Master Agent; a hierarchy of agents forwards the
// request to Server Daemons (SEDs); each SED populates an estimation
// vector via its (pluggable) estimation function; agents sort the
// responses with their plug-in scheduler at every level; the Master
// Agent elects a SED and the client invokes it.
//
// The same policies and election logic run inside the deterministic
// simulator (package sim); this package exists so the library is
// usable as an actual middleware: components communicate through a
// Transport, with in-process and TCP/gob implementations provided.
package middleware

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"greensched/internal/core"
	"greensched/internal/estvec"
	"greensched/internal/obs"
	"greensched/internal/power"
	"greensched/internal/sched"
)

// Request is a client problem submission (§III-A step 1), carrying the
// §III-C user preference plus the live SLA terms the interceptor stack
// resolves and enforces.
type Request struct {
	ID      uint64
	Service string
	Ops     float64 // problem size in flops
	// Pref is the Preference_user the client attached. It is journaled
	// and replayed with the request, but no election reads it:
	// sched.ScorePolicy and budget.Policy take Eq. 6's P from their own
	// configuration, so it is not a live Eq. 3 input.
	Pref    core.UserPref
	Payload []byte // opaque problem data

	// Class names the request's SLA class ("" = best-effort); an
	// SLAInterceptor resolves it against its catalog exactly like
	// workload.Task.Class in the simulator.
	Class string
	// Deadline is the absolute completion deadline in seconds on the
	// master's clock (0 = none). When zero, OnSubmit resolves it from
	// the class's relative deadline so later interceptors see the
	// effective terms.
	Deadline float64
	// Value is the dollars an on-time completion earns (0 = class
	// default).
	Value float64
	// Deferrable marks work a CarbonInterceptor may hold back until
	// the grid is clean (the live analogue of the simulator's
	// candidacy-window deferral of no-deadline batch).
	Deferrable bool

	// TraceID and ParentSpan are the request's distributed-tracing
	// context. The master assigns TraceID at submission (when tracing
	// is on) and rewrites ParentSpan as the request enters each stage,
	// so components downstream — agents a level below, remote SEDs on
	// the far side of the gob wire — emit spans that stitch into the
	// same hop tree. Zero means untraced; every emitter checks.
	TraceID    uint64
	ParentSpan uint64
}

// Response is the outcome of solving a request.
type Response struct {
	Server string
	Output []byte

	// ExecSec is the observed execution time on the solving SED.
	ExecSec float64
	// EnergyJ is the request's attributed energy share: the SED's mean
	// metered draw over the execution divided by its slot count, times
	// ExecSec — the static per-slot share of the node. Zero when the
	// SED has no power source. It travels with the response so a
	// master-side BudgetInterceptor can charge live completions even
	// across the TCP transport.
	EnergyJ float64

	// QueueSec is the time the request waited for a free execution
	// slot, on the solving SED's clock. It rides back with the
	// response so the master can reconstruct the SED-side hop tree
	// (queue → solve → reply) from durations alone — clocks differ
	// across processes, durations don't.
	QueueSec float64
	// Spanned reports that the solving SED emitted its own queue and
	// solve spans (SEDConfig.Spans): the master then skips
	// reconstructing them from QueueSec/ExecSec, so a merged span
	// stream carries exactly one span per stage.
	Spanned bool
}

// Service is a computational service a SED exposes ("a single SED can
// offer any number of computational services").
type Service struct {
	Name string
	// Solve computes the problem. It runs on one execution slot.
	Solve func(ctx context.Context, req Request) ([]byte, error)
}

// MeterFunc reads the node's current power draw in watts; ok=false
// when no meter is attached. Real deployments wire this to a wattmeter
// (the paper uses external Omegawatt meters); tests and examples use
// synthetic sources.
type MeterFunc func() (watts float64, ok bool)

// EstimationFunc populates a SED's estimation vector for a request.
// This is the paper's plug-in customization point: "A developer can
// create his own performance estimation function and include it into a
// SED so that when the SED receives a user request, the custom
// function is called to populate an estimation vector."
type EstimationFunc func(s *SED, req Request) *estvec.Vector

// SEDConfig configures a Server Daemon.
type SEDConfig struct {
	Name  string
	Slots int // concurrent executions (cores); ≥1

	// Interceptors is the SED's extension stack: WrapEstimation hooks
	// fold left-to-right over DefaultEstimation, and PowerSource
	// implementations feed the dynamic estimator (MeterInterceptor
	// for live power readings, CarbonInterceptor for the site's grid
	// intensity tag; a WrapEstimation hook may replace the
	// estimation function outright).
	Interceptors []Interceptor

	// EstimatorWindow is the moving-average window (requests); 0
	// means 64.
	EstimatorWindow int
	// BootSec/BootPowerW describe the node for Eq. 4/5 when the SED
	// is provisioned from cold.
	BootSec    float64
	BootPowerW float64

	// Spans, when set, receives the SED's own queue-wait and solve
	// spans for traced requests (Request.TraceID non-zero), stitched
	// to the master's dispatch span by the propagated trace context.
	// In a cross-process deployment each daemon writes its own file;
	// the analyzer ingests the concatenation.
	Spans *obs.SpanWriter
}

// SED is a Server Daemon: a service provider with bounded concurrency,
// a FIFO admission queue and a dynamic power/performance estimator.
type SED struct {
	cfg SEDConfig
	// services is a copy-on-write map (Register replaces it whole):
	// Estimate and Solve look services up with one atomic load instead
	// of taking the estimator mutex on every request.
	services atomic.Pointer[map[string]Service]

	// estFn is the effective estimation function after the interceptor
	// chain's WrapEstimation hooks fold over DefaultEstimation;
	// sources holds the chain's PowerSource implementations in stack
	// order.
	estFn   EstimationFunc
	sources []PowerSource

	sem      chan struct{}
	queueLen atomic.Int64
	inflight atomic.Int64
	done     atomic.Uint64
	fails    atomic.Uint64

	mu        sync.Mutex
	est       *power.Estimator
	execTotal float64 // summed execution seconds of completed requests

	active atomic.Bool
	sink   *spanSink // SEDConfig.Spans; nil without a writer
}

// SEDStats is a point-in-time observability snapshot of one SED.
type SEDStats struct {
	Name      string
	Completed uint64
	// Failed counts Solve calls that returned an error (service
	// failures, unknown-service routing, context cancellation) — they
	// never reach Completed, and without this counter they vanished
	// from observability entirely.
	Failed   uint64
	InFlight int
	Queued   int
	// MeanExecSec is the average execution time of completed
	// requests (0 before the first completion).
	MeanExecSec float64
	// Learned dynamic estimates; zero when still unknown.
	PowerW    float64
	Flops     float64
	GreenPerf float64
	Active    bool
}

// Stats returns the SED's current counters and learned estimates.
func (s *SED) Stats() SEDStats {
	st := SEDStats{
		Name:      s.cfg.Name,
		Completed: s.done.Load(),
		Failed:    s.fails.Load(),
		InFlight:  int(s.inflight.Load()),
		Queued:    int(s.queueLen.Load()),
		Active:    s.active.Load(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.Completed > 0 {
		st.MeanExecSec = s.execTotal / float64(st.Completed)
	}
	if p, ok := s.est.Power(); ok {
		st.PowerW = p
	}
	if f, ok := s.est.Flops(); ok {
		st.Flops = f
	}
	if gp, ok := s.est.GreenPerf(); ok {
		st.GreenPerf = gp
	}
	return st
}

// NewSED constructs a SED: it runs every interceptor's Init and folds
// the WrapEstimation hooks left-to-right over DefaultEstimation.
func NewSED(cfg SEDConfig) (*SED, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("middleware: SED needs a name")
	}
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("middleware: SED %s needs at least one slot", cfg.Name)
	}
	if cfg.EstimatorWindow <= 0 {
		cfg.EstimatorWindow = 64
	}
	s := &SED{
		cfg:  cfg,
		sem:  make(chan struct{}, cfg.Slots),
		est:  power.NewEstimator(cfg.EstimatorWindow),
		sink: newSpanSink(cfg.Name, cfg.Spans, nil),
	}
	s.services.Store(&map[string]Service{})
	s.active.Store(true)

	est := EstimationFunc(func(sed *SED, req Request) *estvec.Vector {
		return sed.DefaultEstimation(req)
	})
	for _, ic := range cfg.Interceptors {
		if ic == nil {
			return nil, fmt.Errorf("middleware: SED %s: nil interceptor", cfg.Name)
		}
		if err := ic.Init(Mount{SED: s}); err != nil {
			return nil, fmt.Errorf("middleware: SED %s: %w", cfg.Name, err)
		}
		est = ic.WrapEstimation(est)
		if src, ok := ic.(PowerSource); ok {
			s.sources = append(s.sources, src)
		}
	}
	s.estFn = est
	return s, nil
}

// readPower polls the SED's power sources in stack order and returns
// the first available reading.
func (s *SED) readPower() (float64, bool) {
	for _, src := range s.sources {
		if w, ok := src.PowerW(); ok {
			return w, true
		}
	}
	return 0, false
}

// Name returns the SED's unique name.
func (s *SED) Name() string { return s.cfg.Name }

// Register adds (or replaces) a service. It publishes a fresh copy of
// the service map, so in-flight lookups keep reading the old one.
func (s *SED) Register(svc Service) error {
	if svc.Name == "" || svc.Solve == nil {
		return fmt.Errorf("middleware: SED %s: invalid service", s.cfg.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.services.Load()
	next := make(map[string]Service, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[svc.Name] = svc
	s.services.Store(&next)
	return nil
}

// SetActive marks the SED available/unavailable (provisioning uses
// this to drain a node before shutdown).
func (s *SED) SetActive(v bool) { s.active.Store(v) }

// Estimate responds to a request propagation (§III-A step 3): nil when
// the SED does not offer the service, otherwise a single-vector list.
func (s *SED) Estimate(ctx context.Context, req Request) (estvec.List, error) {
	if _, offers := (*s.services.Load())[req.Service]; !offers {
		return nil, nil
	}
	return estvec.List{s.estFn(s, req)}, nil
}

// DefaultEstimation is the stock estimation function: the classic DIET
// system tags plus the paper's energy tags, fed by the dynamic
// estimator.
func (s *SED) DefaultEstimation(req Request) *estvec.Vector {
	free := s.cfg.Slots - int(s.inflight.Load())
	if free < 0 {
		free = 0
	}
	qlen := float64(s.queueLen.Load())
	v := estvec.New(s.cfg.Name).
		Set(estvec.TagFreeCores, float64(free)).
		Set(sched.TagCores(), float64(s.cfg.Slots)).
		Set(estvec.TagQueueLen, qlen).
		Set(estvec.TagBootSec, s.cfg.BootSec).
		Set(estvec.TagBootPowerW, s.cfg.BootPowerW).
		SetBool(estvec.TagActive, s.active.Load()).
		Set(estvec.TagRandom, randFloat())

	s.mu.Lock()
	est := s.est
	known := est.Known()
	reqs := float64(est.Requests())
	flops, okF := est.Flops()
	pw, okP := est.Power()
	gp, okG := est.GreenPerf()
	s.mu.Unlock()

	v.SetBool(estvec.TagKnown, known).Set(estvec.TagRequests, reqs)
	var wait float64
	if okF && flops > 0 && free == 0 {
		wait = (qlen + 1) * req.Ops / flops / float64(s.cfg.Slots)
	}
	v.Set(estvec.TagWaitSec, wait)
	if okF {
		v.Set(estvec.TagFlops, flops)
	}
	if okP {
		v.Set(estvec.TagPowerW, pw)
	}
	if okG {
		v.Set(estvec.TagGreenPerf, gp)
	}
	return v
}

// Solve executes a request (§III-A step 5), blocking for a free slot.
// It feeds the dynamic estimator with the observed execution time and
// the power sources' readings, and attributes the request its per-slot
// energy share in the response. The queue wait rides back on the
// response (and, with SEDConfig.Spans, becomes the SED's own queue and
// solve spans) so the master can decompose the dispatch round trip.
func (s *SED) Solve(ctx context.Context, req Request) (Response, error) {
	svc, ok := (*s.services.Load())[req.Service]
	if !ok {
		s.fails.Add(1)
		return Response{}, fmt.Errorf("middleware: SED %s does not offer %q", s.cfg.Name, req.Service)
	}
	queue := s.sink.begin(obs.StageQueue, req)
	s.queueLen.Add(1)
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.queueLen.Add(-1)
		s.fails.Add(1)
		queue.end(ctx.Err())
		return Response{}, ctx.Err()
	}
	s.queueLen.Add(-1)
	queueSec := queue.end(nil)
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		<-s.sem
	}()

	var meterSum float64
	var meterN int
	if w, ok := s.readPower(); ok {
		meterSum += w
		meterN++
	}
	solve := s.sink.begin(obs.StageSolve, req)
	out, err := svc.Solve(ctx, req)
	elapsed := solve.end(err)
	if err != nil {
		s.fails.Add(1)
		return Response{}, err
	}
	if w, ok := s.readPower(); ok {
		meterSum += w
		meterN++
	}
	meanW := 0.0
	if meterN > 0 {
		meanW = meterSum / float64(meterN)
	}
	if elapsed > 0 {
		s.mu.Lock()
		s.est.ObserveRequest(meanW, req.Ops, elapsed)
		s.execTotal += elapsed
		s.mu.Unlock()
	}
	s.done.Add(1)
	return Response{
		Server:   s.cfg.Name,
		Output:   out,
		ExecSec:  elapsed,
		EnergyJ:  meanW * elapsed / float64(s.cfg.Slots),
		QueueSec: queueSec,
		Spanned:  solve.traced(),
	}, nil
}

// randFloat is a package-level uniform source for the RANDOM policy
// tag. It is deliberately shared rather than per-SED so that
// concurrent estimations stay uniform; a CAS loop on the xorshift
// state replaces the old mutex so the random tag never becomes the
// serialization point of a parallel fan-out.
var randState atomic.Uint64

func init() { randState.Store(0x9E3779B97F4A7C15) }

func randFloat() float64 {
	// xorshift64*: small, deterministic-enough shuffle source.
	for {
		old := randState.Load()
		x := old
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		if randState.CompareAndSwap(old, x) {
			return float64((x*0x2545F4914F6CDD1D)>>11) / float64(1<<53)
		}
	}
}

// SeedRand reseeds the shared shuffle source (tests).
func SeedRand(seed uint64) {
	if seed == 0 {
		seed = 1
	}
	randState.Store(seed)
}
