// Composed live middleware: the interceptor stack puts the paper's
// green-scheduling machinery on the LIVE serving path, mirroring what
// sim.Config.Modules does for the simulator. A Master built with
// functional options mounts three interceptors — carbon-window
// deferral, budget metering, SLA admission + revenue ledger — over two
// TCP SEDs, and a mixed workload shows each one acting:
//
//   - a deferrable batch request submitted on a dirty grid is parked
//     until the clean window opens;
//   - a request whose deadline no node can meet is rejected by
//     admission control and its value forfeited in the ledger;
//   - every completion charges its metered energy share to the budget
//     tracker (the share travels inside the gob response, so metering
//     works across the wire).
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"greensched/internal/budget"
	"greensched/internal/cluster"
	"greensched/internal/middleware"
	"greensched/internal/sched"
	"greensched/internal/sla"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// flipFeed is a toy grid: dirty until the demo opens the window. It is
// a carbon.Signal whose intensity follows the demo, not the clock.
type flipFeed struct {
	mu    sync.Mutex
	clean bool
}

func (f *flipFeed) open() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.clean = true
}

func (f *flipFeed) IntensityAt(float64) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.clean {
		return 60 // hydro hours
	}
	return 600 // coal hours
}

func (f *flipFeed) RenewableAt(float64) float64 { return 0 }

func (f *flipFeed) MeanIntensity(t0, _ float64) float64 { return f.IntensityAt(t0) }

func main() {
	// Two metered SEDs, each serving "compute" behind a TCP endpoint.
	grid := &flipFeed{}
	platform := &cluster.Platform{Nodes: []cluster.NodeSpec{
		{Name: "lean", Cores: 2, FlopsPerCore: 1e9, PeakW: 80},
		{Name: "hungry", Cores: 2, FlopsPerCore: 4e9, PeakW: 320},
	}}
	fleet, err := middleware.NewFleet(middleware.FleetSpec{Platform: platform, TCP: true, Carbon: grid})
	if err != nil {
		fail(err)
	}

	// The interceptor stack: SLA admission first (reject before
	// anything is parked; its resolved deadlines keep urgent traffic
	// out of the green window), then carbon deferral, then budget
	// metering. Finalize runs in reverse, so the ledger summary
	// divides by the energy and grams the later interceptors publish.
	tracker, err := budget.NewTracker(1e6, 3600)
	if err != nil {
		fail(err)
	}
	catalog := sla.Catalog{
		"interactive": {Name: "interactive", RelDeadlineSec: 60, ValueUSD: 2, Curve: sla.HardDrop{}},
		"batch":       {Name: "batch", ValueUSD: 0.05, Curve: sla.Flat{}},
		"hopeless":    {Name: "hopeless", RelDeadlineSec: 1e-5, ValueUSD: 1, Curve: sla.HardDrop{}},
	}
	master, err := fleet.Deploy(
		middleware.WithName("master"),
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
		middleware.WithInterceptors(
			&middleware.SLAInterceptor{
				Config:    &sla.Config{Catalog: catalog, Admission: &sla.Admission{Margin: 1}},
				BestFlops: 4e9,
			},
			&middleware.CarbonInterceptor{
				Signal: grid, DirtyG: 300, MaxDeferSec: 10, PollSec: 0.02,
			},
			&middleware.BudgetInterceptor{Tracker: tracker},
		),
	)
	if err != nil {
		fail(err)
	}
	defer master.Close()
	for i, addr := range master.Addrs {
		fmt.Printf("SED %-6s listening on %s\n", platform.Nodes[i].Name, addr)
	}
	ctx := context.Background()

	// Learning phase: the master measures both SEDs.
	for i := 0; i < 4; i++ {
		if _, err := master.Do(ctx, middleware.Request{Service: "compute", Ops: 4e6}); err != nil {
			fail(err)
		}
	}

	// A deferrable batch request on the dirty grid: parked by the
	// carbon window until the grid turns clean.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := master.Do(ctx, middleware.Request{
			Service: "compute", Ops: 4e6, Class: "batch", Deferrable: true,
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("deferred batch ran on %s once the window opened\n", resp.Server)
	}()

	// Interactive traffic is never parked behind a green window.
	for i := 0; i < 3; i++ {
		resp, err := master.Do(ctx, middleware.Request{
			Service: "compute", Ops: 4e6, Class: "interactive",
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("interactive -> %s (%.1f ms)\n", resp.Server, resp.ExecSec*1e3)
	}

	// A deadline no node can meet: admission refuses it outright.
	if _, err := master.Do(ctx, middleware.Request{
		Service: "compute", Ops: 4e6, Class: "hopeless",
	}); errors.Is(err, middleware.ErrRejected) {
		fmt.Printf("hopeless request rejected: %v\n", err)
	} else {
		fail(fmt.Errorf("hopeless request was not rejected (err=%v)", err))
	}

	// Open the clean window; the parked batch resumes.
	time.Sleep(300 * time.Millisecond)
	grid.open()
	wg.Wait()

	res := master.Finalize()
	fmt.Printf("\n%d submitted: %d completed, %d rejected, %d carbon-deferred (%.2fs waited)\n",
		res.Submitted, res.Completed, res.Rejected, res.Deferred, res.DeferredSec)
	fmt.Printf("energy %.2f J (budget metered %.2f J of %.0f), %.4f g CO2\n",
		res.EnergyJ, res.BudgetSpentJ, tracker.Remaining()+tracker.Spent(), res.CO2Grams)
	fmt.Println("ledger:")
	if err := res.SLA.Render(os.Stdout); err != nil {
		fail(err)
	}
}
