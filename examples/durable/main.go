// Durable dispatch: a master that can be kill -9'd without losing
// work. Every admission is journaled to a checksummed write-ahead log
// before dispatch, every dispatch books a lease (owning SED + expiry),
// and every outcome settles the entry — so the walkthrough below can
// murder a master with a request still executing and prove the next
// incarnation recovers it:
//
//  1. master A journals three requests to completion, then dispatches
//     a fourth that stalls mid-solve on its SED;
//  2. A dies (the journal is abandoned exactly as a crash would leave
//     it: the lease is on disk, the settle never lands);
//  3. the journal is reopened — the fold shows one incomplete
//     lifecycle, leased to the dead dispatch's SED;
//  4. master B replays: settled outcomes are re-booked onto its ledger
//     without re-executing anything, the orphaned lease is waited out,
//     and the request is redone on a DIFFERENT SED — exactly-once on
//     the books even though the stalled solve also finished.
//
// Run it:
//
//	go run ./examples/durable
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"greensched/internal/cluster"
	"greensched/internal/estvec"
	"greensched/internal/journal"
	"greensched/internal/middleware"
	"greensched/internal/sched"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	dir, err := os.MkdirTemp("", "durable-example-*")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "master.wal")
	ctx := context.Background()

	// Two SEDs, built once and outliving every master, offer "stall"
	// next to their quick "compute": it blocks until release is
	// closed — the in-flight request the crash orphans.
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	fleet, err := middleware.NewFleet(middleware.FleetSpec{
		Platform: &cluster.Platform{Nodes: []cluster.NodeSpec{
			{Name: "lean", Cores: 2, FlopsPerCore: 1e12, PeakW: 100},
			{Name: "hungry", Cores: 2, FlopsPerCore: 1e12, PeakW: 100},
		}},
		Services: []middleware.Service{{
			Name: "stall",
			Solve: func(ctx context.Context, req middleware.Request) ([]byte, error) {
				started <- struct{}{}
				<-release
				return []byte("late"), nil
			},
		}},
	})
	if err != nil {
		fail(err)
	}

	// --- incarnation A: journal mounted, short leases ---------------
	jrnA, err := journal.Open(path, journal.Options{})
	if err != nil {
		fail(err)
	}
	masterA, err := fleet.Deploy(
		middleware.WithName("master-A"),
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
		middleware.WithJournal(jrnA),
		middleware.WithLeaseTerm(300*time.Millisecond),
	)
	if err != nil {
		fail(err)
	}

	fmt.Println("== incarnation A: journaling every dispatch ==")
	for i := 0; i < 3; i++ {
		resp, err := masterA.Do(ctx, middleware.Request{Service: "compute", Ops: 1e9})
		if err != nil {
			fail(err)
		}
		fmt.Printf("  compute %d solved on %-6s (journaled: admit -> lease -> settle)\n", i+1, resp.Server)
	}

	// The fourth request stalls mid-solve: its lease is on disk, its
	// settle will never be.
	done := make(chan struct{})
	go func() {
		defer close(done)
		masterA.Do(ctx, middleware.Request{Service: "stall", Ops: 1e9})
	}()
	<-started
	fmt.Println("  stall request executing, lease journaled")

	// --- kill -9 ----------------------------------------------------
	// Abandon drops the journal exactly as a crash would: the fd is
	// closed without settling anything. The stalled solve then finishes
	// on the SED, but the dead master can no longer book it — that
	// duplicate-execution outcome is what the journal dedups.
	jrnA.Abandon()
	fmt.Println("\n== kill -9: master A is gone, one lease orphaned ==")
	close(release)
	<-done
	masterA.Close()

	// --- recovery ---------------------------------------------------
	jrnB, err := journal.Open(path, journal.Options{})
	if err != nil {
		fail(err)
	}
	for _, e := range jrnB.Pending() {
		fmt.Printf("  journal fold: request #%d %s, leased to %s until t=%.0f\n",
			e.Admit.ID, e.State, e.SED, e.Expiry)
	}

	masterB, err := fleet.Deploy(
		middleware.WithName("master-B"),
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
		middleware.WithJournal(jrnB),
		middleware.WithLeaseTerm(300*time.Millisecond),
		middleware.WithInterceptors(&middleware.HookInterceptor{
			OnElectFunc: func(now float64, req middleware.Request, server string, list estvec.List) {
				fmt.Printf("  redo: %s re-elected onto %s (the dead lease's SED is excluded)\n", req.Service, server)
			},
		}),
	)
	if err != nil {
		fail(err)
	}
	defer masterB.Close()

	fmt.Println("\n== incarnation B: replaying the journal ==")
	stats, err := masterB.Replay(ctx)
	if err != nil {
		fail(err)
	}
	fmt.Printf("  re-booked %d settled outcomes (no re-execution), resubmitted %d,\n", stats.Rebooked, stats.Resubmitted)
	fmt.Printf("  waited out %d expired lease(s), redone %d, failed %d\n", stats.LeaseExpired, stats.Redone, stats.Failed)
	if stats.Rebooked != 3 || stats.Resubmitted != 1 || stats.LeaseExpired != 1 || stats.Redone != 1 || stats.Failed != 0 {
		fail(fmt.Errorf("replay stats %+v: want 3 rebooked, 1 resubmission redone after its lease expired", stats))
	}

	res := masterB.Finalize()
	fmt.Printf("\nbooks after recovery: %d submitted, %d completed, %d failed — nothing lost\n",
		res.Submitted, res.Completed, res.Failed)
	if res.Submitted != 4 || res.Completed != 4 || res.Failed != 0 {
		fail(fmt.Errorf("books lost work: %d submitted, %d completed, %d failed", res.Submitted, res.Completed, res.Failed))
	}
	if st := jrnB.Stats(); st.Pending != 0 {
		fail(fmt.Errorf("journal left %d incomplete lifecycles", st.Pending))
	}
	fmt.Println("journal drained: 0 incomplete lifecycles")
	jrnB.Close()
	fmt.Printf("\n(inspect such a log anytime: go run ./cmd/greensched journal %s)\n", path)
}
