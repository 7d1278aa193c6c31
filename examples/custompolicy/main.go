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
	"time"

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
	// Three SEDs with very different profiles, solving a "burn"
	// service that sleeps proportionally to the problem size.
	mkSED := func(name string, speed, watts float64) *middleware.SED {
		sed, err := middleware.NewSED(middleware.SEDConfig{
			Name:  name,
			Slots: 2,
			Interceptors: []middleware.Interceptor{
				&middleware.MeterInterceptor{Meter: func() (float64, bool) { return watts, true }},
			},
		})
		if err != nil {
			panic(err)
		}
		sed.Register(middleware.Service{
			Name: "burn",
			Solve: func(ctx context.Context, req middleware.Request) ([]byte, error) {
				time.Sleep(time.Duration(req.Ops / speed * float64(time.Second)))
				return []byte("ok"), nil
			},
		})
		return sed
	}
	fast := mkSED("fast-hungry", 40e6, 400) // 40 Mflop/s, 400 W
	lean := mkSED("slow-lean", 10e6, 60)    // 10 Mflop/s, 60 W
	mid := mkSED("balanced", 25e6, 150)     // 25 Mflop/s, 150 W

	master, err := middleware.NewMaster(
		middleware.WithName("ma"),
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
		middleware.WithSEDs(fast, lean, mid),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Prime the dynamic estimators (the learning phase).
	for range 3 {
		for _, sed := range []*middleware.SED{fast, lean, mid} {
			if _, err := sed.Solve(context.Background(), middleware.Request{Service: "burn", Ops: 1e6}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	ops := 2e6
	for _, policy := range []sched.Policy{
		sched.New(sched.Power),
		sched.New(sched.Performance),
		edpPolicy{ops: ops},
	} {
		master.SetPolicy(policy)
		resp, err := master.Submit(context.Background(), "burn", ops, 0, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%-12s elected %s\n", policy.Name(), resp.Server)
	}
}
