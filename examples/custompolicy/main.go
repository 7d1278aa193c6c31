// Custom plug-in scheduler: the paper's framework lets developers
// "implement aggregation and resource ranking based on contextual
// information" without touching the middleware. This example defines
// an energy-delay-product (EDP) policy as a sched.Policy, plugs it
// into a live in-process DIET hierarchy next to the stock policies,
// and shows the election changing with the plug-in.
package main

import (
	"context"
	"fmt"
	"os"

	"greensched/internal/cluster"
	"greensched/internal/estvec"
	"greensched/internal/middleware"
	"greensched/internal/sched"
)

// edpPolicy ranks servers by estimated energy-delay product for a
// fixed task size — exactly what the Eq. 6 score degrades to at P=0,
// but written from scratch as a third-party plug-in would be.
type edpPolicy struct{ ops float64 }

func (edpPolicy) Name() string { return "EDP" }

func (p edpPolicy) Less(a, b *estvec.Vector) bool {
	ea, aok := p.edp(a)
	eb, bok := p.edp(b)
	switch {
	case aok && !bok:
		return true
	case !aok && bok:
		return false
	case ea != eb:
		return ea < eb
	default:
		return a.Server < b.Server
	}
}

func (p edpPolicy) edp(v *estvec.Vector) (float64, bool) {
	srv, ok := sched.ServerFromVector(v)
	if !ok {
		return 0, false
	}
	t := srv.ComputationTime(p.ops)
	e := srv.EnergyConsumption(p.ops)
	return t * e, true
}

func main() {
	// Three SEDs with very different profiles, each offering the
	// fleet's "compute" service, which sleeps Ops/FlopsPerCore.
	fleet, err := middleware.NewFleet(middleware.FleetSpec{Platform: &cluster.Platform{Nodes: []cluster.NodeSpec{
		{Name: "fast-hungry", Cores: 2, FlopsPerCore: 40e6, PeakW: 400}, // 40 Mflop/s, 400 W
		{Name: "slow-lean", Cores: 2, FlopsPerCore: 10e6, PeakW: 60},    // 10 Mflop/s, 60 W
		{Name: "balanced", Cores: 2, FlopsPerCore: 25e6, PeakW: 150},    // 25 Mflop/s, 150 W
	}}})
	if err != nil {
		fail(err)
	}
	master, err := fleet.Deploy(
		middleware.WithName("ma"),
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
	)
	if err != nil {
		fail(err)
	}
	defer master.Close()

	// Prime the dynamic estimators: the learning phase sends one
	// request to each unmeasured SED.
	for range 3 {
		if _, err := master.Submit(context.Background(), "compute", 1e6, 0, nil); err != nil {
			fail(err)
		}
	}

	ops := 2e6
	for _, policy := range []sched.Policy{
		sched.New(sched.Power),
		sched.New(sched.Performance),
		edpPolicy{ops: ops},
	} {
		master.SetPolicy(policy)
		resp, err := master.Submit(context.Background(), "compute", ops, 0, nil)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-12s elected %s\n", policy.Name(), resp.Server)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
