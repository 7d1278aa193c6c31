package middleware

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"greensched/internal/budget"
	"greensched/internal/estvec"
	"greensched/internal/sched"
	"greensched/internal/sla"
)

// recorder appends labelled lifecycle events to a shared log.
type recorder struct {
	mu     sync.Mutex
	events []string
}

func (r *recorder) add(e string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

func (r *recorder) log() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

// testHooks adapts bare functions into an Interceptor, one per hook.
// Nil fields are no-ops.
type testHooks struct {
	InitFunc           func(mount Mount) error
	OnSubmitFunc       func(ctx context.Context, now float64, req *Request) error
	WrapEstimationFunc func(base EstimationFunc) EstimationFunc
	OnElectFunc        func(now float64, req Request, server string, list estvec.List)
	OnCompleteFunc     func(rec RequestRecord)
	FinalizeFunc       func(res *LiveResult)
}

// Init implements Interceptor.
func (h *testHooks) Init(mount Mount) error {
	if h.InitFunc == nil {
		return nil
	}
	return h.InitFunc(mount)
}

// OnSubmit implements Interceptor.
func (h *testHooks) OnSubmit(ctx context.Context, now float64, req *Request) error {
	if h.OnSubmitFunc == nil {
		return nil
	}
	return h.OnSubmitFunc(ctx, now, req)
}

// WrapEstimation implements Interceptor.
func (h *testHooks) WrapEstimation(base EstimationFunc) EstimationFunc {
	if h.WrapEstimationFunc == nil {
		return base
	}
	return h.WrapEstimationFunc(base)
}

// OnElect implements Interceptor.
func (h *testHooks) OnElect(now float64, req Request, server string, list estvec.List) {
	if h.OnElectFunc != nil {
		h.OnElectFunc(now, req, server, list)
	}
}

// OnComplete implements Interceptor.
func (h *testHooks) OnComplete(rec RequestRecord) {
	if h.OnCompleteFunc != nil {
		h.OnCompleteFunc(rec)
	}
}

// Finalize implements Interceptor.
func (h *testHooks) Finalize(res *LiveResult) {
	if h.FinalizeFunc != nil {
		h.FinalizeFunc(res)
	}
}

func recordingInterceptor(rec *recorder, label string) *testHooks {
	return &testHooks{
		InitFunc:     func(Mount) error { rec.add("init-" + label); return nil },
		OnSubmitFunc: func(_ context.Context, _ float64, _ *Request) error { rec.add("submit-" + label); return nil },
		OnElectFunc:  func(_ float64, _ Request, _ string, _ estvec.List) { rec.add("elect-" + label) },
		OnCompleteFunc: func(RequestRecord) {
			rec.add("complete-" + label)
		},
		FinalizeFunc: func(*LiveResult) { rec.add("finalize-" + label) },
	}
}

// TestMasterLifecycleHookOrder: entry hooks (Init, OnSubmit, OnElect,
// OnComplete) run in stack order; Finalize runs in reverse — the
// onion's exit path.
func TestMasterLifecycleHookOrder(t *testing.T) {
	rec := &recorder{}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "only", 1, 2e9, 100)),
		WithInterceptors(recordingInterceptor(rec, "a"), recordingInterceptor(rec, "b")),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), "burn", 1e6, 0, nil); err != nil {
		t.Fatal(err)
	}
	m.Finalize()
	want := []string{
		"init-a", "init-b",
		"submit-a", "submit-b",
		"elect-a", "elect-b",
		"complete-a", "complete-b",
		"finalize-b", "finalize-a",
	}
	got := rec.log()
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestEstimationWrapsFoldLeftToRight: the first interceptor in a SED's
// stack wraps DefaultEstimation, the last is outermost — and the inner
// function runs first, so tag overrides compose in stack order.
func TestEstimationWrapsFoldLeftToRight(t *testing.T) {
	rec := &recorder{}
	wrap := func(label string, tag estvec.Tag, val float64) *testHooks {
		return &testHooks{
			WrapEstimationFunc: func(base EstimationFunc) EstimationFunc {
				return func(s *SED, req Request) *estvec.Vector {
					v := base(s, req)
					rec.add(label)
					return v.Set(tag, val)
				}
			},
		}
	}
	shared := estvec.Tag("layer")
	sed, err := NewSED(SEDConfig{Name: "wrapped", Slots: 1, Interceptors: []Interceptor{
		wrap("a", shared, 1),
		wrap("b", shared, 2),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sed.Register(burnService(2e9)); err != nil {
		t.Fatal(err)
	}
	list, err := sed.Estimate(context.Background(), Request{Service: "burn", Ops: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	got := rec.log()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("wrap execution order = %v, want [a b]", got)
	}
	// The later interceptor is outermost: its override wins.
	if v := list[0].Value(shared, 0); v != 2 {
		t.Fatalf("layer tag = %v, want 2 (outermost wrap)", v)
	}
	// Default tags survive underneath the wraps.
	if !list[0].Has(estvec.TagFreeCores) {
		t.Fatal("wraps lost the stock estimation tags")
	}
}

// TestOnSubmitRejectionShortCircuits: the first rejecting hook wins —
// later hooks never run, the submission surfaces ErrRejected, and the
// master books a rejection, not a failure.
func TestOnSubmitRejectionShortCircuits(t *testing.T) {
	var later atomic.Int64
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "only", 1, 2e9, 100)),
		WithInterceptors(
			&testHooks{OnSubmitFunc: func(_ context.Context, _ float64, req *Request) error {
				return fmt.Errorf("%w: request %d refused by policy", ErrRejected, req.ID)
			}},
			&testHooks{OnSubmitFunc: func(context.Context, float64, *Request) error {
				later.Add(1)
				return nil
			}},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Submit(context.Background(), "burn", 1e6, 0, nil)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if later.Load() != 0 {
		t.Error("a hook after the rejecting one still ran")
	}
	res := m.Finalize()
	if res.Submitted != 1 || res.Rejected != 1 || res.Failed != 0 || res.Completed != 0 {
		t.Errorf("result = %+v, want 1 submitted / 1 rejected", res)
	}
}

// TestOnSubmitMutationVisibleDownstream: an earlier hook's request
// mutation reaches later hooks and the elected SED.
func TestOnSubmitMutationVisibleDownstream(t *testing.T) {
	var sawClass atomic.Value
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "only", 1, 2e9, 100)),
		WithInterceptors(
			&testHooks{OnSubmitFunc: func(_ context.Context, _ float64, req *Request) error {
				req.Class = "boosted"
				return nil
			}},
			&testHooks{OnSubmitFunc: func(_ context.Context, _ float64, req *Request) error {
				sawClass.Store(req.Class)
				return nil
			}},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), "burn", 1e6, 0, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := sawClass.Load().(string); got != "boosted" {
		t.Errorf("later hook saw class %q, want \"boosted\"", got)
	}
}

// TestNewMasterValidation: construction fails loudly on a missing
// policy, nil interceptors and failing Inits.
func TestNewMasterValidation(t *testing.T) {
	if _, err := NewMaster(); err == nil {
		t.Error("master without a policy accepted")
	}
	if _, err := NewMaster(WithPolicy(sched.New(sched.Power)), WithInterceptors(nil)); err == nil {
		t.Error("nil interceptor accepted")
	}
	boom := &testHooks{InitFunc: func(Mount) error { return errors.New("boom") }}
	if _, err := NewMaster(WithPolicy(sched.New(sched.Power)), WithInterceptors(boom)); err == nil {
		t.Error("failing Init accepted")
	}
}

// TestNewMasterConstructionErrors: every invalid option combination is
// refused at construction with an error naming the fault.
func TestNewMasterConstructionErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Option
		want string
	}{
		{"nil interceptor", WithInterceptors(nil), "nil interceptor"},
		{"negative concurrency", WithConcurrency(-1), "negative concurrency"},
		{"negative lease term", WithLeaseTerm(-time.Second), "negative lease term"},
		{"metrics without registry", WithMetricsAddr("127.0.0.1:0"), "needs an ObsInterceptor"},
	} {
		m, err := NewMaster(WithPolicy(sched.New(sched.Power)), tc.opt)
		if err == nil {
			m.Close()
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// TestSEDFailedCounter is the observability regression test: Solve
// errors must not vanish — they surface in SEDStats.Failed and through
// the master's aggregation.
func TestSEDFailedCounter(t *testing.T) {
	sed, err := NewSED(SEDConfig{Name: "flaky", Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sed.Register(Service{Name: "burn", Solve: func(context.Context, Request) ([]byte, error) {
		return nil, errors.New("cosmic ray")
	}}); err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(WithPolicy(sched.New(sched.Power)), withSEDs(sed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), "burn", 1e6, 0, nil); err == nil {
		t.Fatal("failing service should surface its error")
	}
	st := sed.Stats()
	if st.Failed != 1 || st.Completed != 0 {
		t.Errorf("stats = %+v, want Failed=1 Completed=0", st)
	}
	agg := m.SEDStats()
	if len(agg) != 1 || agg[0].Failed != 1 {
		t.Errorf("aggregated stats = %+v, want one SED with Failed=1", agg)
	}
	if res := m.Finalize(); res.Failed != 1 {
		t.Errorf("master result failed = %d, want 1", res.Failed)
	}
	// Unknown-service routing errors count too.
	if _, err := sed.Solve(context.Background(), Request{Service: "missing"}); err == nil {
		t.Fatal("unknown service should error")
	}
	if got := sed.fails.Load(); got != 2 {
		t.Errorf("Failed() = %d, want 2", got)
	}
}

// TestSLAInterceptorLiveLedger: the live path runs per-class admission
// and accrues real dollars — an on-time completion earns its class
// value, a provably worthless request is rejected and forfeited.
func TestSLAInterceptorLiveLedger(t *testing.T) {
	catalog := sla.Catalog{
		"express": {Name: "express", RelDeadlineSec: 60, ValueUSD: 2, Curve: sla.HardDrop{}},
		"doomed":  {Name: "doomed", RelDeadlineSec: 0.001, ValueUSD: 1, Curve: sla.HardDrop{}},
	}
	ic := &SLAInterceptor{
		Config:    &sla.Config{Catalog: catalog, Admission: &sla.Admission{Margin: 1}},
		BestFlops: 2e9, // ops 1e8 → best case 50ms ≫ the doomed 1ms deadline
	}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "fast", 2, 2e9, 100)),
		WithInterceptors(ic),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := m.Do(ctx, Request{Service: "burn", Ops: 1e8, Class: "express"}); err != nil {
		t.Fatal(err)
	}
	_, err = m.Do(ctx, Request{Service: "burn", Ops: 1e8, Class: "doomed"})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("doomed request err = %v, want ErrRejected", err)
	}
	res := m.Finalize()
	if res.SLA == nil {
		t.Fatal("no ledger summary published")
	}
	if res.SLA.EarnedUSD != 2 || res.SLA.ForfeitedUSD != 1 {
		t.Errorf("ledger earned $%.2f forfeited $%.2f, want $2.00 / $1.00", res.SLA.EarnedUSD, res.SLA.ForfeitedUSD)
	}
	if res.SLA.Rejected != 1 || res.Rejected != 1 {
		t.Errorf("rejections: ledger %d master %d, want 1/1", res.SLA.Rejected, res.Rejected)
	}
	if res.SLA.OnTime != 1 {
		t.Errorf("on-time = %d, want 1", res.SLA.OnTime)
	}
}

// TestCarbonInterceptorDefersUntilClean: a deferrable request
// submitted on a dirty grid waits for the window to open; urgent and
// non-deferrable traffic passes straight through.
func TestCarbonInterceptorDefersUntilClean(t *testing.T) {
	var dirty atomic.Bool
	dirty.Store(true)
	feed := feedSignal{g: func() float64 {
		if dirty.Load() {
			return 600
		}
		return 50
	}}
	ic := &CarbonInterceptor{Signal: feed, DirtyG: 300, MaxDeferSec: 10, PollSec: 0.005}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "only", 2, 2e9, 100)),
		WithInterceptors(ic),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Non-deferrable work is never parked.
	done := make(chan error, 1)
	go func() {
		_, err := m.Do(ctx, Request{Service: "burn", Ops: 1e6})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("non-deferrable request was deferred")
	}

	// A deferrable request waits until the grid turns clean.
	deferredDone := make(chan error, 1)
	go func() {
		_, err := m.Do(ctx, Request{Service: "burn", Ops: 1e6, Deferrable: true})
		deferredDone <- err
	}()
	select {
	case <-deferredDone:
		t.Fatal("deferrable request ran while the grid was dirty")
	case <-time.After(50 * time.Millisecond):
	}
	dirty.Store(false)
	select {
	case err := <-deferredDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("deferred request never resumed after the window opened")
	}

	res := m.Finalize()
	if res.Deferred != 1 || res.DeferredSec <= 0 {
		t.Errorf("deferred=%d sec=%.3f, want 1 deferral with positive wait", res.Deferred, res.DeferredSec)
	}
	if res.CO2Grams <= 0 {
		t.Errorf("CO2 attribution = %v, want positive grams", res.CO2Grams)
	}
}

// TestCarbonInterceptorMaxDeferBound: a grid that never turns clean
// releases the request once MaxDeferSec expires.
func TestCarbonInterceptorMaxDeferBound(t *testing.T) {
	ic := &CarbonInterceptor{
		Signal: feedSignal{g: func() float64 { return 900 }},
		DirtyG: 300, MaxDeferSec: 0.05, PollSec: 0.005,
	}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "only", 1, 2e9, 100)),
		WithInterceptors(ic),
	)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := m.Do(context.Background(), Request{Service: "burn", Ops: 1e6, Deferrable: true}); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond || waited > 2*time.Second {
		t.Errorf("waited %v, want ≈ MaxDeferSec", waited)
	}
	// Context cancellation bounds the wait too.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	ic2 := &CarbonInterceptor{
		Signal: feedSignal{g: func() float64 { return 900 }},
		DirtyG: 300, MaxDeferSec: 60, PollSec: 0.005,
	}
	m2, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "only2", 1, 2e9, 100)),
		WithInterceptors(ic2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Do(ctx, Request{Service: "burn", Ops: 1e6, Deferrable: true}); err == nil {
		t.Fatal("cancelled deferral should surface the context error")
	}
}

// TestDeferrableDeadlineClassNeverParked: with the SLA interceptor
// mounted before the carbon one (the documented order), a Deferrable
// request whose CLASS carries the deadline is still exempt from
// green-window parking — the resolved absolute deadline reaches the
// deferral check.
func TestDeferrableDeadlineClassNeverParked(t *testing.T) {
	catalog := sla.Catalog{
		"express": {Name: "express", RelDeadlineSec: 60, ValueUSD: 2, Curve: sla.HardDrop{}},
	}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "only", 1, 2e9, 100)),
		WithInterceptors(
			&SLAInterceptor{Config: &sla.Config{Catalog: catalog}},
			&CarbonInterceptor{
				Signal: feedSignal{g: func() float64 { return 900 }}, // permanently dirty
				DirtyG: 300, MaxDeferSec: 30, PollSec: 0.005,
			},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.Do(context.Background(), Request{
			Service: "burn", Ops: 1e6, Class: "express", Deferrable: true,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("deadline-class request was parked behind the green window")
	}
	if res := m.Finalize(); res.Deferred != 0 {
		t.Errorf("deferred = %d, want 0", res.Deferred)
	}
}

// TestSLAInterceptorBooksFailures: an admitted request that fails in
// execution forfeits its value in the ledger and releases the
// per-request terms — no silent loss, no state leak.
func TestSLAInterceptorBooksFailures(t *testing.T) {
	sed, err := NewSED(SEDConfig{Name: "flaky", Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sed.Register(Service{Name: "burn", Solve: func(context.Context, Request) ([]byte, error) {
		return nil, errors.New("cosmic ray")
	}}); err != nil {
		t.Fatal(err)
	}
	catalog := sla.Catalog{
		"express": {Name: "express", RelDeadlineSec: 60, ValueUSD: 2, Curve: sla.HardDrop{}},
	}
	ic := &SLAInterceptor{Config: &sla.Config{Catalog: catalog}}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(sed),
		WithInterceptors(ic),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Do(context.Background(), Request{Service: "burn", Ops: 1e6, Class: "express"}); err == nil {
		t.Fatal("failing service should surface its error")
	}
	res := m.Finalize()
	if res.SLA == nil {
		t.Fatal("no ledger summary")
	}
	if res.SLA.Failed != 1 || res.SLA.ForfeitedUSD != 2 {
		t.Errorf("ledger failed=%d forfeited=$%.2f, want 1 / $2.00", res.SLA.Failed, res.SLA.ForfeitedUSD)
	}
	ic.mu.Lock()
	leaked := len(ic.terms)
	ic.mu.Unlock()
	if leaked != 0 {
		t.Errorf("%d terms entries leaked after the failure", leaked)
	}
}

// TestBudgetInterceptorCharges: completions charge their attributed
// energy share to the tracker.
func TestBudgetInterceptorCharges(t *testing.T) {
	tracker, err := budget.NewTracker(1, 3600) // 1 J: the first request exhausts it
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "hot", 1, 2e9, 5000)),
		WithInterceptors(&BudgetInterceptor{Tracker: tracker}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), "burn", 2e7, 0, nil); err != nil { // ~10ms at 5kW
		t.Fatal(err)
	}
	if !tracker.Exhausted() {
		t.Fatalf("tracker spent %.3f J, want > 1 J", tracker.Spent())
	}
	res := m.Finalize()
	if math.Abs(res.BudgetSpentJ-res.EnergyJ) > 1e-9 {
		t.Errorf("budget metered %.6f J, master attributed %.6f J", res.BudgetSpentJ, res.EnergyJ)
	}
	if res.BudgetSpentJ <= 0 {
		t.Error("no energy was metered")
	}
}
