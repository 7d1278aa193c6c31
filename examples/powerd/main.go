// External power estimation that survives its estimator dying: per-node
// watts come from an out-of-process powerd sidecar over a unix socket,
// and the scheduler keeps electing when that sidecar is kill -9'd
// mid-run. The walkthrough runs the same composed serving stack twice —
// SLA ledger + energy budget + sidecar power on two SEDs — and proves
// the fault changes nothing the books can see:
//
//  1. control: the sidecar stays up; every reading is live, the
//     fallback counter stays at zero;
//  2. faulted: the sidecar is killed after the first third of the
//     requests. The client degrades loudly — last-good cache, then the
//     built-in analytic curves — while elections continue; the sidecar
//     restarts (serving shifted figures so a live reading is provably
//     live) and the client converges back within its staleness window;
//  3. both runs must complete every request, earn the same dollar
//     total, and meter the budget to exactly the energy the master
//     attributed — and the faulted run must have tripped the fallback
//     counter on the metrics endpoint, because silent degradation is
//     the one failure mode this subsystem refuses.
//
// Any broken invariant exits non-zero.
//
// Run it:
//
//	go run ./examples/powerd
package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"greensched/internal/budget"
	"greensched/internal/cluster"
	"greensched/internal/middleware"
	"greensched/internal/obs"
	"greensched/internal/power"
	"greensched/internal/powerd"
	"greensched/internal/sched"
	"greensched/internal/sla"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func failf(format string, args ...any) { fail(fmt.Errorf(format, args...)) }

// platform is the two SEDs every run deploys: the hungry node is faster
// and thirstier.
var platform = &cluster.Platform{Nodes: []cluster.NodeSpec{
	{Name: "lean", Cores: 2, FlopsPerCore: 1e9, PeakW: 80},
	{Name: "hungry", Cores: 2, FlopsPerCore: 4e9, PeakW: 320},
}}

// totals is what a faulted run must share with the control: the
// deterministic books, never wall-clock joules.
type totals struct {
	completed int
	earnedUSD float64
	fallbacks uint64
}

// study drives 14 gold requests through the composed stack. With fault
// set, the sidecar dies after the first third and restarts before the
// last third.
func study(fault bool) totals {
	label := "control"
	if fault {
		label = "faulted"
	}
	dir, err := os.MkdirTemp("", "powerd-example-*")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	addr := "unix:" + filepath.Join(dir, "powerd.sock")

	// The reference sidecar serves each node's peak draw; the client's
	// fallback curves carry the same figures, so dying mid-run cannot
	// move the books — only the counters.
	peaks := power.StaticSource{}
	for _, n := range platform.Nodes {
		peaks[n.Name] = n.PeakW
	}
	srv, err := powerd.Serve(addr, peaks, powerd.Options{})
	if err != nil {
		fail(err)
	}
	defer srv.Close()
	fmt.Printf("== %s run: sidecar serving protocol v%d on %s ==\n", label, powerd.ProtocolVersion, srv.Addr())

	cli, err := powerd.NewClient(powerd.Config{
		Addr: addr, Timeout: 100 * time.Millisecond, Retries: -1,
		StalenessSec: 0.05, BreakerAfter: 2, ReprobeSec: 0.02,
		Fallback: peaks,
		Logf:     func(format string, args ...any) { fmt.Printf("  powerd client: "+format+"\n", args...) },
	})
	if err != nil {
		fail(err)
	}
	defer cli.Close()

	// No local meter: the sidecar client is the only power feed.
	fleet, err := middleware.NewFleet(middleware.FleetSpec{Platform: platform, Power: cli})
	if err != nil {
		fail(err)
	}

	tracker, err := budget.NewTracker(1e6, 60)
	if err != nil {
		fail(err)
	}
	reg := obs.NewRegistry()
	master, err := fleet.Deploy(
		middleware.WithName("power-"+label),
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
		middleware.WithInterceptors(
			&middleware.SLAInterceptor{
				Config: &sla.Config{
					Catalog: sla.Catalog{
						"gold": {Name: "gold", RelDeadlineSec: 60, ValueUSD: 2, Curve: sla.HardDrop{}},
					},
					Admission: &sla.Admission{Margin: 1},
				},
				BestFlops: 4e9,
			},
			&middleware.BudgetInterceptor{Tracker: tracker},
			&middleware.ExternalPowerInterceptor{Source: cli, Registry: reg},
		),
	)
	if err != nil {
		fail(err)
	}

	ctx := context.Background()
	do := func(n int, phase string) {
		for i := 0; i < n; i++ {
			if _, err := master.Do(ctx, middleware.Request{Service: "compute", Ops: 4e6, Class: "gold"}); err != nil {
				failf("%s request during %q failed — elections must survive sidecar faults: %v", label, phase, err)
			}
		}
		fmt.Printf("  %d requests served (%s)\n", n, phase)
	}

	do(5, "live sidecar readings")
	if fault {
		srv.Close()
		fmt.Println("  kill -9: sidecar gone, leaning on the analytic curves")
		// Outlive the last-good cache window so the next phase provably
		// runs on the fallback curves, not the cache.
		time.Sleep(100 * time.Millisecond)
	}
	do(5, "fallback curves")
	if fault {
		// Restart at the same address with shifted figures: reading 81
		// (not the fallback's 80) proves the client converged back.
		srv2, err := powerd.Serve(addr, power.StaticSource{"lean": 81, "hungry": 321}, powerd.Options{})
		if err != nil {
			fail(err)
		}
		defer srv2.Close()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if w, ok := cli.NodePowerW("lean", nil, nil); ok && w == 81 {
				break
			}
			if time.Now().After(deadline) {
				failf("client never recovered to the restarted sidecar (stats %+v)", cli.Stats())
			}
			time.Sleep(10 * time.Millisecond)
		}
		if _, age, ok := cli.LastReading("lean"); !ok || age > 0.05 {
			failf("reading not fresh after restart: age %.3fs, ok %v", age, ok)
		}
		fmt.Println("  sidecar restarted: breaker closed, fresh readings resumed")
	}
	do(4, "live again")

	res := master.Finalize()
	if res.Failed != 0 || res.Rejected != 0 {
		failf("%s run lost work: %d failed, %d rejected", label, res.Failed, res.Rejected)
	}
	// The budget metered exactly what the master attributed — the
	// invariant a wrong power feed would break first.
	if math.Abs(res.BudgetSpentJ-res.EnergyJ) > 1e-6*math.Max(1, res.EnergyJ) {
		failf("%s run books off: budget metered %.6f J, master attributed %.6f J", label, res.BudgetSpentJ, res.EnergyJ)
	}
	st := cli.Stats()
	fmt.Printf("  books: %d completed, $%.2f earned, %.1f J metered == %.1f J attributed\n",
		res.Completed, res.SLA.EarnedUSD, res.BudgetSpentJ, res.EnergyJ)
	fmt.Printf("  sidecar client: %d requests, %d errors, %d fallbacks, %d cache hits\n\n",
		st.Requests, st.Errors, st.Fallbacks, st.CacheHits)

	// The fallback must be loud on the metrics endpoint, never silent.
	var sb strings.Builder
	if err := reg.Render(&sb); err != nil {
		fail(err)
	}
	if !strings.Contains(sb.String(), "greensched_power_requests_total") {
		failf("%s run: greensched_power_* families missing from the exposition", label)
	}
	if fault && strings.Contains(sb.String(), "greensched_power_fallbacks_total 0") {
		failf("faulted run: fallbacks invisible on the exposition endpoint:\n%s", sb.String())
	}
	return totals{completed: res.Completed, earnedUSD: res.SLA.EarnedUSD, fallbacks: st.Fallbacks}
}

func main() {
	control := study(false)
	faulted := study(true)

	if control.fallbacks != 0 {
		failf("control run fell back %d times with a healthy sidecar", control.fallbacks)
	}
	if faulted.fallbacks < 1 {
		failf("sidecar killed mid-run but the fallback counter never fired")
	}
	if faulted.completed != control.completed {
		failf("completed %d with faults, %d in control", faulted.completed, control.completed)
	}
	if math.Abs(faulted.earnedUSD-control.earnedUSD) > 1e-9 || faulted.earnedUSD != 28 {
		failf("ledger earned $%.4f with faults, $%.4f in control (want $28 both ways)",
			faulted.earnedUSD, control.earnedUSD)
	}
	fmt.Println("== verdict ==")
	fmt.Printf("killing the power estimator moved zero requests and zero dollars\n")
	fmt.Printf("(%d fallback readings, all on the metrics endpoint — loud, never silent)\n", faulted.fallbacks)
}
