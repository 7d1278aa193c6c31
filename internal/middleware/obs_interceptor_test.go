package middleware

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"greensched/internal/budget"
	"greensched/internal/obs"
	"greensched/internal/sched"
	"greensched/internal/sla"
)

// scrape renders the registry and parses it back — the same view a
// Prometheus scraper gets.
func scrape(t *testing.T, reg *obs.Registry) obs.Samples {
	t.Helper()
	var sb strings.Builder
	if err := reg.Render(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, sb.String())
	}
	return samples
}

// TestObsInterceptorCountsLifecycle: the full composed stack under the
// obs interceptor; every counter and ledger gauge on the scrape agrees
// with the Finalize result — the ISSUE's counter/ledger parity.
func TestObsInterceptorCountsLifecycle(t *testing.T) {
	catalog := sla.Catalog{
		"gold":   {Name: "gold", RelDeadlineSec: 60, ValueUSD: 2, Curve: sla.HardDrop{}},
		"doomed": {Name: "doomed", RelDeadlineSec: 0.001, ValueUSD: 1, Curve: sla.HardDrop{}},
	}
	tracker, err := budget.NewTracker(1e12, 3600)
	if err != nil {
		t.Fatal(err)
	}
	obsIC := &ObsInterceptor{
		Labels: map[string]string{"transport": "inproc"},
	}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "only", 2, 2e9, 100)),
		WithInterceptors(
			obsIC,
			&SLAInterceptor{
				Config:    &sla.Config{Catalog: catalog, Admission: &sla.Admission{Margin: 1}},
				BestFlops: 2e9, // ops 1e8 → best case 50ms ≫ the doomed 1ms deadline
			},
			&BudgetInterceptor{Tracker: tracker},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := m.Do(ctx, Request{Service: "burn", Ops: 1e8, Class: "gold"}); err != nil {
			t.Fatal(err)
		}
	}
	// A provably hopeless deadline is refused at admission.
	if _, err := m.Do(ctx, Request{Service: "burn", Ops: 1e8, Class: "doomed"}); err == nil {
		t.Fatal("admission accepted a hopeless deadline")
	}
	// An unknown service fails at election (no SED offers it).
	if _, err := m.Do(ctx, Request{Service: "nosuch", Ops: 1e6}); err == nil {
		t.Fatal("unknown service solved")
	}

	res := m.Finalize()
	samples := scrape(t, obsIC.Metrics())
	lbl := `transport=inproc`
	for _, tc := range []struct {
		name string
		want float64
	}{
		{"greensched_requests_total", float64(res.Submitted)},
		{"greensched_completions_total", float64(res.Completed)},
		{"greensched_rejections_total", float64(res.Rejected)},
		{"greensched_failures_total", float64(res.Failed)},
		{"greensched_inflight", 0},
		{"greensched_energy_joules", res.EnergyJ},
		{"greensched_budget_spent_joules", res.BudgetSpentJ},
		{"greensched_ledger_earned_dollars", res.SLA.EarnedUSD},
		{"greensched_ledger_forfeited_dollars", res.SLA.ForfeitedUSD},
	} {
		got, ok := samples.Value(tc.name, lbl)
		if !ok || got != tc.want {
			t.Errorf("%s{%s} = %v ok=%v, want %v", tc.name, lbl, got, ok, tc.want)
		}
	}
	if res.Submitted != 5 || res.Completed != 3 || res.Rejected != 1 || res.Failed != 1 {
		t.Errorf("result %+v, want 5 submitted / 3 completed / 1 rejected / 1 failed", res)
	}
	if got, ok := samples.Value("greensched_elections_total", "server=only", lbl); !ok || got != 3 {
		t.Errorf("elections{server=only} = %v ok=%v, want 3 (the completions; a failed election elects nobody)", got, ok)
	}
	if got, ok := samples.Value("greensched_solve_seconds_count", lbl); !ok || got != 3 {
		t.Errorf("solve histogram count = %v ok=%v, want 3", got, ok)
	}
}

// TestObsInterceptorScrapeRefreshesLedger: ledger gauges refresh
// through the OnScrape collector without an explicit Finalize call —
// a mid-run scrape sees current totals.
func TestObsInterceptorScrapeRefreshesLedger(t *testing.T) {
	obsIC := &ObsInterceptor{}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "only", 1, 2e9, 100)),
		WithInterceptors(obsIC),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Do(context.Background(), Request{Service: "burn", Ops: 1e6}); err != nil {
		t.Fatal(err)
	}
	// No m.Finalize() here: the scrape itself must refresh the gauge.
	samples := scrape(t, obsIC.Metrics())
	if got, ok := samples.Value("greensched_energy_joules"); !ok || got <= 0 {
		t.Errorf("scrape did not refresh energy gauge: %v ok=%v", got, ok)
	}
}

// TestMasterDeferredVisibleWhileParked is the satellite regression
// test: a carbon-parked request shows up in Master.Deferred — and on
// the scrape's parked gauges — BEFORE its window opens.
func TestMasterDeferredVisibleWhileParked(t *testing.T) {
	var dirty atomic.Bool
	dirty.Store(true)
	feed := feedSignal{g: func() float64 {
		if dirty.Load() {
			return 600
		}
		return 50
	}}
	obsIC := &ObsInterceptor{}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "only", 1, 2e9, 100)),
		WithInterceptors(
			obsIC,
			&CarbonInterceptor{Signal: feed, DirtyG: 300, MaxDeferSec: 30, PollSec: 0.005},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Deferred(); st.Parked != 0 {
		t.Fatalf("idle master reports %d parked", st.Parked)
	}

	done := make(chan error, 1)
	go func() {
		_, err := m.Do(context.Background(), Request{Service: "burn", Ops: 1e6, Deferrable: true})
		done <- err
	}()

	// The parked request must become visible while the grid is dirty.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := m.Deferred(); st.Parked == 1 {
			if st.OldestSec < 0 {
				t.Errorf("negative parked age %v", st.OldestSec)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("parked request never became visible in Master.Deferred")
		}
		time.Sleep(time.Millisecond)
	}
	// And on the exposition, via the scrape-time collector.
	samples := scrape(t, obsIC.Metrics())
	if got, ok := samples.Value("greensched_deferred_parked"); !ok || got != 1 {
		t.Errorf("greensched_deferred_parked = %v ok=%v, want 1", got, ok)
	}

	dirty.Store(false)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := m.Deferred(); st.Parked != 0 {
		t.Errorf("released request still parked: %+v", st)
	}
	res := m.Finalize()
	if res.Deferred != 1 {
		t.Errorf("deferrals = %d, want 1", res.Deferred)
	}
	samples = scrape(t, obsIC.Metrics())
	if got, ok := samples.Value("greensched_deferrals_total"); !ok || got != 1 {
		t.Errorf("greensched_deferrals_total = %v ok=%v, want 1", got, ok)
	}
}

// TestMasterMetricsListener: WithMetricsAddr serves the interceptor's
// registry over HTTP; without an ObsInterceptor it is a construction
// error.
func TestMasterMetricsListener(t *testing.T) {
	obsIC := &ObsInterceptor{}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "only", 1, 2e9, 100)),
		WithInterceptors(obsIC),
		WithMetricsAddr("127.0.0.1:0"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Do(context.Background(), Request{Service: "burn", Ops: 1e6}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + m.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if got, ok := samples.Value("greensched_requests_total"); !ok || got != 1 {
		t.Errorf("greensched_requests_total over HTTP = %v ok=%v, want 1", got, ok)
	}

	if _, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "only2", 1, 2e9, 100)),
		WithMetricsAddr("127.0.0.1:0"),
	); err == nil {
		t.Error("WithMetricsAddr without an ObsInterceptor accepted")
	}
}
