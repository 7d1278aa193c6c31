package core_test

import (
	"fmt"

	"greensched/internal/core"
	"greensched/internal/sched"
)

// ExampleRank reproduces the Figure 1 ordering: servers sorted by the
// GREENPERF policy on their power/performance ratio, most efficient
// first.
func ExampleRank() {
	servers := []core.Server{
		{Name: "S2", Flops: 6e9, PowerW: 150, Active: true},
		{Name: "S0", Flops: 10e9, PowerW: 100, Active: true},
		{Name: "S1", Flops: 8e9, PowerW: 120, Active: true},
	}
	for _, s := range Rank(servers, sched.New(sched.GreenPerf)) {
		fmt.Printf("%s %.0f nW/flops\n", s.Name, s.GreenPerf()*1e9)
	}
	// Output:
	// S0 10 nW/flops
	// S1 15 nW/flops
	// S2 25 nW/flops
}

// ExampleSelectCandidates shows Algorithm 1: the GreenPerf-sorted
// prefix whose accumulated power covers the provider's preference.
func ExampleSelectCandidates() {
	sorted := []core.Server{
		{Name: "green", Flops: 10e9, PowerW: 100, Active: true},
		{Name: "mid", Flops: 8e9, PowerW: 150, Active: true},
		{Name: "hot", Flops: 5e9, PowerW: 250, Active: true},
	}
	// P_total = 500 W; preference 0.5 → P_required = 250 W.
	for _, s := range core.SelectCandidates(sorted, 0.5) {
		fmt.Println(s.Name)
	}
	// Output:
	// green
	// mid
}

// ExampleServer_Score evaluates Eq. 6 at the Eq. 7 limits.
func ExampleServer_Score() {
	fast := core.Server{Name: "fast", Flops: 10e9, PowerW: 400, Active: true}
	lean := core.Server{Name: "lean", Flops: 2e9, PowerW: 60, Active: true}
	ops := 1e12
	for _, p := range []core.UserPref{core.PrefMaxPerformance, core.PrefMaxEfficiency} {
		winner := "lean"
		if fast.Score(ops, p) < lean.Score(ops, p) {
			winner = "fast"
		}
		fmt.Printf("P=%+.0f -> %s\n", float64(p), winner)
	}
	// Output:
	// P=-1 -> fast
	// P=+1 -> lean
}

// ExampleProviderPref evaluates Eq. 1 for a cheap-electricity,
// busy-platform period.
func ExampleProviderPref() {
	pp := core.ProviderPref{Alpha: 0.5, Beta: 0.5}
	fmt.Printf("%.2f\n", pp.Eval(0.8 /*utilization*/, 0.2 /*cost*/))
	// Output:
	// 0.80
}
