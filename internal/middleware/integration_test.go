package middleware

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"greensched/internal/sched"
)

// TestLivePlacementShape reproduces the §IV-A comparison through the
// real concurrent middleware (goroutines and wall-clock execution,
// scaled down ~1000×): a burst of requests flows through an MA→LA→SED
// hierarchy under POWER and PERFORMANCE plug-ins, and the completed
// counts must show the same winners as the simulated Figures 2-3.
func TestLivePlacementShape(t *testing.T) {
	type nodeProfile struct {
		name  string
		speed float64 // flop/s of the fake service
		watts float64
		slots int
	}
	// Miniature taurus/orion/sagittaire: taurus leanest, orion
	// fastest, sagittaire slow and hot.
	profiles := []nodeProfile{
		{"taurus-0", 2.0e9, 150, 4},
		{"taurus-1", 2.0e9, 152, 4},
		{"orion-0", 2.4e9, 340, 4},
		{"orion-1", 2.4e9, 342, 4},
		{"sagittaire-0", 1.0e9, 245, 1},
		{"sagittaire-1", 1.0e9, 246, 1},
	}

	build := func(policy sched.Policy) (*Master, map[string]*SED) {
		seds := map[string]*SED{}
		dir := NewMapDirectory()
		var las [2]*Agent
		for i := range las {
			la, err := NewAgent(fmt.Sprintf("la-%d", i), policy, 0)
			if err != nil {
				t.Fatal(err)
			}
			las[i] = la
		}
		for i, p := range profiles {
			sed, err := NewSED(SEDConfig{
				Name:  p.name,
				Slots: p.slots,
				Interceptors: []Interceptor{
					&MeterInterceptor{Meter: func(w float64) MeterFunc {
						return func() (float64, bool) { return w, true }
					}(p.watts)},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			speed := p.speed
			sed.Register(Service{Name: "burn", Solve: func(ctx context.Context, req Request) ([]byte, error) {
				select {
				case <-time.After(time.Duration(req.Ops / speed * float64(time.Second))):
					return nil, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}})
			seds[p.name] = sed
			las[i%2].Attach(sed)
			dir.Add(p.name, sed)
		}
		m, err := NewMaster(WithName("ma"), WithPolicy(policy), WithChildren(las[0], las[1]), WithTransport(dir))
		if err != nil {
			t.Fatal(err)
		}
		return m, seds
	}

	run := func(policy sched.Policy) map[string]uint64 {
		client, seds := build(policy)
		// Learning phase: the first requests spread to unmeasured
		// SEDs automatically; then steady-state requests follow the
		// policy. 60 requests of ~10 ms (2e7 flops at 2 Gflop/s).
		var wg sync.WaitGroup
		errs := make(chan error, 60)
		sem := make(chan struct{}, 8) // client-side concurrency
		for i := 0; i < 60; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if _, err := client.Submit(ctx, "burn", 2e7, 0, nil); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		counts := map[string]uint64{}
		for name, sed := range seds {
			counts[name] = sed.done.Load()
		}
		return counts
	}

	power := run(sched.New(sched.Power))
	perf := run(sched.New(sched.Performance))

	sum := func(counts map[string]uint64, prefix string) uint64 {
		total := uint64(0)
		for name, c := range counts {
			if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
				total += c
			}
		}
		return total
	}
	// POWER must concentrate on the lean taurus pair.
	if sum(power, "taurus") <= sum(power, "orion") {
		t.Errorf("live POWER: taurus=%d orion=%d, want taurus-dominant",
			sum(power, "taurus"), sum(power, "orion"))
	}
	// PERFORMANCE must concentrate on the fast orion pair.
	if sum(perf, "orion") <= sum(perf, "taurus") {
		t.Errorf("live PERFORMANCE: orion=%d taurus=%d, want orion-dominant",
			sum(perf, "orion"), sum(perf, "taurus"))
	}
	// Every SED was touched at least once (learning phase).
	for name, c := range power {
		if c == 0 {
			t.Errorf("live POWER never touched %s", name)
		}
	}
}
