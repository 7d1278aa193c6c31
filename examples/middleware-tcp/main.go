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
	mkSED := func(name string, speed, watts float64) (*middleware.SED, error) {
		sed, err := middleware.NewSED(middleware.SEDConfig{
			Name:  name,
			Slots: 2,
			Interceptors: []middleware.Interceptor{
				&middleware.MeterInterceptor{Meter: func() (float64, bool) { return watts, true }},
			},
		})
		if err != nil {
			return nil, err
		}
		sed.Register(middleware.Service{
			Name: "burn",
			Solve: func(ctx context.Context, req middleware.Request) ([]byte, error) {
				time.Sleep(time.Duration(req.Ops / speed * float64(time.Second)))
				return []byte(fmt.Sprintf("solved %g flops on %s", req.Ops, name)), nil
			},
		})
		return sed, nil
	}

	lean, err := mkSED("lean", 10e6, 80)
	if err != nil {
		return err
	}
	hungry, err := mkSED("hungry", 30e6, 320)
	if err != nil {
		return err
	}

	// Serve each SED on an ephemeral localhost port.
	epLean, err := middleware.Serve("127.0.0.1:0", lean, lean)
	if err != nil {
		return err
	}
	defer epLean.Close()
	epHungry, err := middleware.Serve("127.0.0.1:0", hungry, hungry)
	if err != nil {
		return err
	}
	defer epHungry.Close()
	fmt.Printf("SED lean   listening on %s\n", epLean.Addr())
	fmt.Printf("SED hungry listening on %s\n", epHungry.Addr())

	// The MA talks to the SEDs through remote handles.
	remLean := middleware.Dial("lean", epLean.Addr())
	remHungry := middleware.Dial("hungry", epHungry.Addr())
	defer remLean.Close()
	defer remHungry.Close()

	master, err := middleware.NewMaster(
		middleware.WithName("ma"),
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
		middleware.WithRemotes(remLean, remHungry),
		// A hung daemon counts as a failed subtree, not a stalled
		// election.
		middleware.WithChildTimeout(2*time.Second),
	)
	if err != nil {
		return err
	}

	// Learning phase: one request lands on each unknown SED first.
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		resp, err := master.Submit(ctx, "burn", 1e6, 0, nil)
		if err != nil {
			return err
		}
		fmt.Printf("request %d -> %s: %s\n", i, resp.Server, resp.Output)
	}

	// With both SEDs measured, GreenPerf favours the lean one.
	resp, err := master.Submit(ctx, "burn", 2e6, float64(1) /*maximize efficiency*/, nil)
	if err != nil {
		return err
	}
	fmt.Printf("steady state -> %s (GreenPerf election over TCP)\n", resp.Server)
	return nil
}
