package middleware

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"greensched/internal/budget"
	"greensched/internal/estvec"
	"greensched/internal/obs"
	"greensched/internal/power"
	"greensched/internal/powerd"
	"greensched/internal/sched"
	"greensched/internal/sla"
)

// Scheduler-level fault injection for the external power path: a full
// interceptor stack (SLA ledger + budget metering + sidecar power on
// both substrates) keeps electing when the powerd sidecar is killed
// mid-run, the fallback is loud on the metrics endpoint, and a
// restarted sidecar brings fresh readings back — with the ledger and
// budget books equal to an uninterrupted control run. The
// protocol-level fault matrix (hung, malformed, short read, wrong
// version, over both powerd socket families) lives in internal/powerd.

const pfOps = 4e6

// powerRunTotals is what must match between a faulted and a control
// run: the deterministic books, not wall-clock-dependent joules.
type powerRunTotals struct {
	completed int
	earnedUSD float64
	energyJ   float64
	budgetJ   float64
	fallbacks uint64
}

// runPowerStudy drives 14 SLA-carrying requests through a two-SED
// hierarchy whose only power feed is a powerd sidecar. With fault set,
// the sidecar is killed after the first third and restarted (serving
// shifted watt figures) before the last third.
func runPowerStudy(t *testing.T, transport string, fault bool) powerRunTotals {
	t.Helper()
	sockDir := t.TempDir()
	addr := "unix:" + sockDir + "/powerd.sock"
	liveSrc := power.StaticSource{"lean": 80, "hungry": 320}
	srv, err := powerd.Serve(addr, liveSrc, powerd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The fallback curves match the sidecar's figures, so a faulted
	// run and the control attribute identical watts throughout — the
	// books must come out the same either way.
	cli, err := powerd.NewClient(powerd.Config{
		Addr: addr, Timeout: 100 * time.Millisecond, Retries: -1,
		StalenessSec: 0.05, BreakerAfter: 2, ReprobeSec: 0.02,
		Fallback: power.StaticSource{"lean": 80, "hungry": 320},
		Logf:     func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	newPowerSED := func(name string, flops float64) *SED {
		sed, err := NewSED(SEDConfig{
			Name:  name,
			Slots: 2,
			Interceptors: []Interceptor{
				&ExternalPowerInterceptor{Source: cli},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sed.Register(burnService(flops)); err != nil {
			t.Fatal(err)
		}
		return sed
	}
	lean := newPowerSED("lean", 1e9)
	hungry := newPowerSED("hungry", 4e9)

	tracker, err := budget.NewTracker(1e6, 60)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ics := []Interceptor{
		&SLAInterceptor{
			Config: &sla.Config{
				Catalog: sla.Catalog{
					"gold": {Name: "gold", RelDeadlineSec: 60, ValueUSD: 2, Curve: sla.HardDrop{}},
				},
				Admission: &sla.Admission{Margin: 1},
			},
			BestFlops: 4e9,
		},
		&BudgetInterceptor{Tracker: tracker},
		&ExternalPowerInterceptor{
			Source:   cli,
			Registry: reg,
			Labels:   map[string]string{"transport": transport},
		},
	}
	opts := []Option{
		WithName("power-" + transport),
		WithPolicy(sched.New(sched.GreenPerf)),
		WithInterceptors(ics...),
	}
	switch transport {
	case "inproc":
		opts = append(opts, withSEDs(lean, hungry))
	case "tcp":
		for _, sed := range []*SED{lean, hungry} {
			ep, err := Serve("127.0.0.1:0", sed, sed)
			if err != nil {
				t.Fatal(err)
			}
			defer ep.Close()
			rem := Dial(sed.Name(), ep.Addr())
			defer rem.Close()
			opts = append(opts, withSEDs(rem))
		}
	default:
		t.Fatalf("unknown transport %q", transport)
	}
	master, err := NewMaster(opts...)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	do := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := master.Do(ctx, Request{Service: "burn", Ops: pfOps, Class: "gold"}); err != nil {
				t.Fatalf("request failed (elections must survive sidecar faults): %v", err)
			}
		}
	}

	do(5) // phase 1: live sidecar readings
	if fault {
		srv.Close() // kill -9 mid-run
		// Outlive the last-good cache window so phase 2 provably runs
		// on the analytic fallback curves, not the cache.
		time.Sleep(100 * time.Millisecond)
	}
	do(5) // phase 2: fallback curves (or still live, in the control)
	if fault {
		// Restart at the same address with shifted figures, then wait
		// for the background probe to close the breaker and a fresh
		// reading to prove the client converged back to the sidecar.
		srv2, err := powerd.Serve(addr, power.StaticSource{"lean": 81, "hungry": 321}, powerd.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv2.Close()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if w, ok := cli.NodePowerW("lean", nil, nil); ok && w == 81 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("client never recovered to the restarted sidecar (stats %+v)", cli.Stats())
			}
			time.Sleep(10 * time.Millisecond)
		}
		if _, age, ok := cli.LastReading("lean"); !ok || age > 5 {
			t.Errorf("reading not fresh after restart: age %v, ok %v", age, ok)
		}
	}
	do(4) // phase 3: back on live readings either way

	res := master.Finalize()
	if res.Failed != 0 || res.Rejected != 0 {
		t.Fatalf("result %+v: nothing should fail or be rejected", res)
	}
	totals := powerRunTotals{
		completed: res.Completed,
		energyJ:   res.EnergyJ,
		budgetJ:   res.BudgetSpentJ,
		fallbacks: cli.Stats().Fallbacks,
	}
	if res.SLA != nil {
		totals.earnedUSD = res.SLA.EarnedUSD
	}

	// The books balance internally: the budget metered exactly what the
	// master attributed.
	if math.Abs(res.BudgetSpentJ-res.EnergyJ) > 1e-6*math.Max(1, res.EnergyJ) {
		t.Errorf("budget metered %.6f J, master attributed %.6f J", res.BudgetSpentJ, res.EnergyJ)
	}

	// The fallback must be loud on the exposition endpoint.
	var sb strings.Builder
	if err := reg.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `greensched_power_requests_total{transport="`+transport+`"}`) {
		t.Errorf("power families missing from exposition:\n%s", out)
	}
	if fault {
		if totals.fallbacks < 1 {
			t.Errorf("sidecar killed but no fallback counted: %+v", cli.Stats())
		}
		if strings.Contains(out, `greensched_power_fallbacks_total{transport="`+transport+`"} 0`) {
			t.Errorf("fallbacks not visible on the exposition endpoint:\n%s", out)
		}
	}
	return totals
}

func TestExternalPowerSidecarKilledMidRun(t *testing.T) {
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			control := runPowerStudy(t, transport, false)
			faulted := runPowerStudy(t, transport, true)
			if faulted.completed != control.completed {
				t.Errorf("completed %d with faults, %d in control", faulted.completed, control.completed)
			}
			if math.Abs(faulted.earnedUSD-control.earnedUSD) > 1e-9 {
				t.Errorf("ledger earned $%.4f with faults, $%.4f in control", faulted.earnedUSD, control.earnedUSD)
			}
			if faulted.earnedUSD != 28 { // 14 gold requests at $2
				t.Errorf("earned $%.4f, want $28", faulted.earnedUSD)
			}
			if control.fallbacks != 0 {
				t.Errorf("control run fell back %d times", control.fallbacks)
			}
		})
	}
}

// TestExternalPowerEstimationOverride: the SED's estimation vector
// carries sidecar watts (and the green-perf ratio derived from them),
// not the trailing estimator mean.
func TestExternalPowerEstimationOverride(t *testing.T) {
	sed, err := NewSED(SEDConfig{
		Name:  "n",
		Slots: 2,
		Interceptors: []Interceptor{
			&ExternalPowerInterceptor{Source: power.StaticSource{"n": 111}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sed.Register(burnService(1e9)); err != nil {
		t.Fatal(err)
	}
	// Learn flops (and a power mean the sidecar must then override).
	if _, err := sed.Solve(context.Background(), Request{ID: 1, Service: "burn", Ops: 1e6}); err != nil {
		t.Fatal(err)
	}
	list, err := sed.Estimate(context.Background(), Request{Service: "burn", Ops: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	v := list[0]
	w, ok := v.Get(estvec.TagPowerW)
	if !ok || w != 111 {
		t.Fatalf("power_w = %v, %v; want sidecar's 111", w, ok)
	}
	f, okF := v.Get(estvec.TagFlops)
	gp, okG := v.Get(estvec.TagGreenPerf)
	if !okF || !okG || math.Abs(gp-111/f) > 1e-12 {
		t.Fatalf("greenperf %v (flops %v): want recomputed 111/flops", gp, f)
	}
}

// TestExternalPowerMasterAttribution: completions arriving without
// SED-side energy get sidecar watts integrated over their execution
// time — only from fresh readings.
func TestExternalPowerMasterAttribution(t *testing.T) {
	srv, err := powerd.Serve("127.0.0.1:0", power.StaticSource{"bare": 50}, powerd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := powerd.NewClient(powerd.Config{Addr: srv.Addr(), Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// A SED with no meter and no interceptors: its completions carry
	// EnergyJ == 0, the master-side attribution's trigger.
	sed, err := NewSED(SEDConfig{Name: "bare", Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sed.Register(burnService(1e9)); err != nil {
		t.Fatal(err)
	}
	// Warm the client's cache for the node so the reading is fresh.
	if w, ok := cli.NodePowerW("bare", nil, nil); !ok || w != 50 {
		t.Fatalf("sidecar reading %v, %v", w, ok)
	}
	pi := &ExternalPowerInterceptor{Source: cli}
	master, err := NewMaster(WithPolicy(sched.New(sched.GreenPerf)), withSEDs(sed), WithInterceptors(pi))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := master.Do(context.Background(), Request{Service: "burn", Ops: 1e7}); err != nil {
		t.Fatal(err)
	}
	res := master.Finalize()
	// The meterless SED books nothing, so every joule of the result is
	// the sidecar attribution.
	if booked := master.EnergyJ(); booked != 0 {
		t.Fatalf("meterless SED booked %v J, want 0", booked)
	}
	if res.EnergyJ <= 0 {
		t.Fatal("no sidecar energy attributed to a meterless completion")
	}
	// ~10ms at 50W: the attribution is watts × exec, within scheduling
	// jitter.
	if res.EnergyJ < 1e-4 || res.EnergyJ > 50 {
		t.Errorf("EnergyJ %v implausible for ~10ms at 50W", res.EnergyJ)
	}
}
