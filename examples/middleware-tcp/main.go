// Distributed deployment: the DIET-style hierarchy over TCP on
// localhost. Two SEDs serve behind gob endpoints, a Master elects
// through remote estimation calls and solves on the elected SED over
// the wire — the §III-A scheduling process end to end across process
// boundaries (here, across sockets).
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"greensched/internal/cluster"
	"greensched/internal/middleware"
	"greensched/internal/sched"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	// Two SEDs, each served on an ephemeral localhost port; the MA
	// talks to them through remote handles.
	platform := &cluster.Platform{Nodes: []cluster.NodeSpec{
		{Name: "lean", Cores: 2, FlopsPerCore: 10e6, PeakW: 80},
		{Name: "hungry", Cores: 2, FlopsPerCore: 30e6, PeakW: 320},
	}}
	fleet, err := middleware.NewFleet(middleware.FleetSpec{Platform: platform, TCP: true})
	if err != nil {
		return err
	}
	master, err := fleet.Deploy(
		middleware.WithName("ma"),
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
		// A hung daemon counts as a failed subtree, not a stalled
		// election.
		middleware.WithChildTimeout(2*time.Second),
	)
	if err != nil {
		return err
	}
	defer master.Close()
	for i, addr := range master.Addrs {
		fmt.Printf("SED %-6s listening on %s\n", platform.Nodes[i].Name, addr)
	}

	// Learning phase: one request lands on each unknown SED first.
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		resp, err := master.Submit(ctx, "compute", 1e6, 0, nil)
		if err != nil {
			return err
		}
		fmt.Printf("request %d -> %s: solved %g flops in %.0f ms\n", i, resp.Server, 1e6, resp.ExecSec*1e3)
	}

	// With both SEDs measured, GreenPerf favours the lean one.
	resp, err := master.Submit(ctx, "compute", 2e6, float64(1) /*maximize efficiency*/, nil)
	if err != nil {
		return err
	}
	fmt.Printf("steady state -> %s (GreenPerf election over TCP)\n", resp.Server)
	return nil
}
