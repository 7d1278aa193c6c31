package middleware

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"greensched/internal/budget"
	"greensched/internal/carbon"
	"greensched/internal/sched"
	"greensched/internal/sla"
)

// This file hammers the concurrent serving path: many goroutines
// driving Master.Do/Submit through the full SLA+carbon+budget+obs
// interceptor stack, over both transports, with the race detector as
// the referee and the books as the oracle — every parallel completion
// must land exactly once in the ledger, the budget and the energy
// total.

// unitCatalog books exactly $1 per completion (flat curve, no
// deadline), so EarnedUSD must equal the completion count to the bit.
func unitCatalog() sla.Catalog {
	return sla.Catalog{
		"unit": {Name: "unit", ValueUSD: 1, Curve: sla.Flat{}},
	}
}

// hammerSEDs builds n two-slot SEDs with distinct constant meters and
// a microsleep service, so every completion carries a positive energy
// share and the estimator learns real figures.
func hammerSEDs(t *testing.T, n int) []*SED {
	t.Helper()
	seds := make([]*SED, n)
	for i := range seds {
		watts := 100 + 50*float64(i)
		sed, err := NewSED(SEDConfig{
			Name:  fmt.Sprintf("sed-%d", i),
			Slots: 2,
			Interceptors: []Interceptor{
				&MeterInterceptor{Meter: func() (float64, bool) { return watts, true }},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sed.Register(Service{Name: "burn", Solve: func(ctx context.Context, req Request) ([]byte, error) {
			time.Sleep(100 * time.Microsecond)
			return nil, nil
		}}); err != nil {
			t.Fatal(err)
		}
		seds[i] = sed
	}
	return seds
}

// hammerMaster wires the full interceptor stack over the requested
// transport ("inproc" or "tcp") and returns the master plus a cleanup.
func hammerMaster(t *testing.T, transport string, extra ...Option) (*Master, func()) {
	t.Helper()
	tracker, err := budget.NewTracker(1e12, 3600)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{
		WithPolicy(sched.New(sched.LeastLoaded)),
		WithInterceptors(
			&ObsInterceptor{},
			&SLAInterceptor{Config: &sla.Config{Catalog: unitCatalog()}},
			&CarbonInterceptor{Signal: carbon.Diurnal{MeanG: 100, AmplitudeG: 50, CleanHour: 13}},
			&BudgetInterceptor{Tracker: tracker},
		),
	}
	opts = append(opts, extra...)
	seds := hammerSEDs(t, 3)
	var cleanup func()
	switch transport {
	case "inproc":
		opts = append(opts, withSEDs(seds...))
		cleanup = func() {}
	case "tcp":
		var eps []*Endpoint
		var rems []*Remote
		for _, sed := range seds {
			ep, err := Serve("127.0.0.1:0", sed, sed)
			if err != nil {
				t.Fatal(err)
			}
			eps = append(eps, ep)
			rems = append(rems, Dial(sed.Name(), ep.Addr()))
		}
		opts = append(opts, withSEDs(rems...))
		cleanup = func() {
			for _, r := range rems {
				r.Close()
			}
			for _, ep := range eps {
				ep.Close()
			}
		}
	default:
		t.Fatalf("unknown transport %q", transport)
	}
	m, err := NewMaster(opts...)
	if err != nil {
		cleanup()
		t.Fatal(err)
	}
	return m, cleanup
}

// near asserts agreement up to summation-order float drift.
func near(t *testing.T, name string, got, want float64) {
	t.Helper()
	if diff := math.Abs(got - want); diff > 1e-9*math.Max(1, math.Abs(want)) {
		t.Errorf("%s = %v, want %v (diff %v)", name, got, want, diff)
	}
}

// TestMasterConcurrentHammer drives parallel Do (classed, $1 each) and
// Submit (best-effort) traffic through the full stack on both
// transports and requires the counters, ledger, budget and energy
// totals to account for every request exactly — no double charges, no
// lost completions, no races.
func TestMasterConcurrentHammer(t *testing.T) {
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			m, cleanup := hammerMaster(t, transport, WithConcurrency(8))
			defer cleanup()

			workers := 12
			perWorker := 30
			if transport == "tcp" {
				workers, perWorker = 8, 15 // one serialized conn per remote
			}
			// Even workers run classed Do requests, odd ones bare
			// Submits; both paths race through the same stack.
			energies := make([]float64, workers)
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						var resp Response
						var err error
						if w%2 == 0 {
							resp, err = m.Do(context.Background(),
								Request{Service: "burn", Ops: 1e6, Class: "unit"})
						} else {
							resp, err = m.Submit(context.Background(), "burn", 1e6, 0, nil)
						}
						if err != nil {
							t.Errorf("worker %d: %v", w, err)
							return
						}
						energies[w] += resp.EnergyJ
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			total := workers * perWorker
			classed := (workers + 1) / 2 * perWorker
			var clientEnergy float64
			for _, e := range energies {
				clientEnergy += e
			}
			if clientEnergy <= 0 {
				t.Fatal("no energy attributed; totals are vacuous")
			}

			res := m.Finalize()
			if res.Submitted != total || res.Completed != total {
				t.Errorf("submitted/completed = %d/%d, want %d/%d", res.Submitted, res.Completed, total, total)
			}
			if res.Rejected != 0 || res.Failed != 0 {
				t.Errorf("rejected/failed = %d/%d, want 0/0", res.Rejected, res.Failed)
			}
			if res.SLA == nil {
				t.Fatal("no SLA summary published")
			}
			if res.SLA.Completed != total {
				t.Errorf("ledger completed = %d, want %d", res.SLA.Completed, total)
			}
			// $1 per classed completion, booked exactly once each.
			if res.SLA.EarnedUSD != float64(classed) {
				t.Errorf("EarnedUSD = %v, want exactly %v", res.SLA.EarnedUSD, float64(classed))
			}
			// The master's accumulator and the budget tracker both saw
			// the same joules the clients did.
			near(t, "EnergyJ", res.EnergyJ, clientEnergy)
			near(t, "BudgetSpentJ", res.BudgetSpentJ, clientEnergy)
			if res.CO2Grams <= 0 {
				t.Error("no emissions integrated")
			}
		})
	}
}

// TestWithConcurrencyBoundsInflight proves the semaphore is real: a
// master bounded at 2 never has more than 2 lifecycles in flight, even
// with 8 clients pushing.
func TestWithConcurrencyBoundsInflight(t *testing.T) {
	var inflight, peak atomic.Int64
	sed, err := NewSED(SEDConfig{Name: "bounded", Slots: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := sed.Register(Service{Name: "burn", Solve: func(ctx context.Context, req Request) ([]byte, error) {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(WithPolicy(sched.New(sched.LeastLoaded)), withSEDs(sed), WithConcurrency(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(8)
	for w := 0; w < 8; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := m.Do(context.Background(), Request{Service: "burn", Ops: 1e6}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak in-flight %d, want ≤ 2", p)
	}
}

// TestAgentSnapshotUnderMutation races Estimate against Attach,
// SetPolicy and SetChildTimeout: the copy-on-write snapshot must keep
// every in-flight fan-out consistent (the race detector referees).
func TestAgentSnapshotUnderMutation(t *testing.T) {
	seds := hammerSEDs(t, 2)
	// Both SEDs are resolvable from the start; only sed-0 is attached —
	// the mutator goroutine grows the fan-out mid-flight.
	m, err := NewMaster(WithPolicy(sched.New(sched.LeastLoaded)), WithChildren(seds[0]),
		WithTransport(prepopulatedDir(seds)))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		policies := []sched.Policy{sched.New(sched.Power), sched.New(sched.LeastLoaded)}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.SetPolicy(policies[i%2])
			m.SetChildTimeout(time.Duration(i%2) * time.Second)
			if i == 3 {
				m.Attach(seds[1]) // grows the snapshot mid-flight once
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := m.Do(context.Background(), Request{Service: "burn", Ops: 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// prepopulatedDir builds a read-only-style directory for WithChildren
// wiring where the SEDs sit below a sub-agent.
func prepopulatedDir(seds []*SED) *MapDirectory {
	dir := NewMapDirectory()
	for _, sed := range seds {
		dir.Add(sed.Name(), sed)
	}
	return dir
}
