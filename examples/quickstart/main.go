// Quickstart: the paper's Figure 1 in code, through the same sched
// policies and selector every election in the simulator and the live
// middleware uses — rank five servers with the GreenPerf policy, place
// seven tasks with the selector, inspect how the Eq. 6 score reorders
// servers as the user preference moves between performance and energy
// efficiency, and apply Algorithm 1 to cap the candidate set under a
// provider preference.
//
// The program exits non-zero if the Figure 1 placement or the
// Algorithm 1 candidate set differs from the expected one, which is
// how CI gates the paper's Figure 1 path.
package main

import (
	"fmt"
	"os"
	"strings"

	"greensched/internal/core"
	"greensched/internal/estvec"
	"greensched/internal/provision"
	"greensched/internal/sched"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// server builds the estimation vector a SED reports: its flops and
// watts, the GreenPerf ratio, and its free cores.
func server(name string, flops, watts float64, cores int) *estvec.Vector {
	return estvec.New(name).
		Set(estvec.TagFlops, flops).
		Set(estvec.TagPowerW, watts).
		Set(estvec.TagGreenPerf, watts/flops).
		Set(estvec.TagFreeCores, float64(cores)).
		SetBool(estvec.TagActive, true)
}

func main() {
	// Five heterogeneous servers (Figure 1's S0..S4): S0 is the most
	// energy-efficient under GreenPerf, S4 the fastest but hungriest.
	servers := estvec.List{
		server("S0", 4e9, 60, 2),
		server("S1", 6e9, 105, 2),
		server("S2", 8e9, 180, 1),
		server("S3", 9e9, 270, 1),
		server("S4", 10e9, 400, 1),
	}

	greenPerf := sched.New(sched.GreenPerf)
	servers.SortStable(greenPerf.Less)
	var sorted []core.Server
	fmt.Println("GreenPerf ranking (W per flop/s, lower is better):")
	for _, v := range servers {
		s, ok := sched.ServerFromVector(v)
		if !ok {
			fail(fmt.Errorf("server %s reports no flops or power", v.Server))
		}
		sorted = append(sorted, s)
		fmt.Printf("  %s  %.1f nW/flops\n", s.Name, s.GreenPerf()*1e9)
	}

	// Figure 1: 7 tasks, each elected onto the best-ranked server
	// that still has a free core.
	fmt.Println("\nFigure 1 placement (7 tasks, greedy by GreenPerf):")
	selector := &sched.Selector{Policy: greenPerf}
	var placed []string
	for task := 0; task < 7; task++ {
		v, err := selector.Select(servers)
		if err != nil {
			fail(err)
		}
		v.Set(estvec.TagFreeCores, v.Value(estvec.TagFreeCores, 0)-1)
		placed = append(placed, v.Server)
		fmt.Printf("  task %d -> %s\n", task, v.Server)
	}
	if got, want := strings.Join(placed, " "), "S0 S0 S1 S1 S2 S3 S4"; got != want {
		fail(fmt.Errorf("Figure 1 placement %s, want %s", got, want))
	}

	// Eq. 6 score sweep: the same servers, reordered by preference.
	ops := 1e12
	fmt.Println("\nBest server by Eq. 6 score as Preference_user varies:")
	for _, pref := range []core.UserPref{core.PrefMaxPerformance, core.PrefNone, core.PrefMaxEfficiency} {
		ranked := append(estvec.List(nil), servers...)
		ranked.SortStable(sched.ScorePolicy{Ops: ops, Pref: pref}.Less)
		fmt.Printf("  P=%+.1f  ->  %s (score exponent %.2f)\n",
			float64(pref), ranked[0].Server, core.ScoreExponent(pref))
	}

	// Eq. 1 + Algorithm 1: a provider preference caps the accumulated
	// power of the GreenPerf-sorted candidate set.
	pp := core.DefaultProviderPref
	provider := pp.Eval(0.6 /*utilization*/, 0.8 /*electricity cost*/)
	candidates := core.SelectCandidates(sorted, provider)
	fmt.Printf("\nProvider preference %.2f selects %d candidate servers:", provider, len(candidates))
	var names []string
	for _, c := range candidates {
		fmt.Printf(" %s", c.Name)
		names = append(names, c.Name)
	}
	fmt.Println()
	if got, want := strings.Join(names, " "), "S0 S1 S2 S3"; got != want {
		fail(fmt.Errorf("Algorithm 1 candidates %s, want %s", got, want))
	}

	// Figure 8: the provisioning-plan record the scheduler polls.
	plan := &provision.Plan{Records: []provision.Record{{
		Value: 1385896446, Temperature: 23.5, Candidates: 8, Cost: 0.6,
	}}}
	xml, err := plan.MarshalIndent()
	if err != nil {
		fail(err)
	}
	fmt.Printf("\nProvisioning plan sample (Figure 8):\n%s\n", xml)
}
