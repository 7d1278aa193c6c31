package sched_test

import (
	"fmt"

	"greensched/internal/estvec"
	"greensched/internal/sched"
)

// ExampleNew reproduces the Figure 1 ordering: SED responses sorted
// by the GREENPERF policy, most energy-efficient first.
func ExampleNew() {
	list := estvec.List{
		estvec.New("S2").Set(estvec.TagFlops, 6e9).Set(estvec.TagGreenPerf, 150/6e9),
		estvec.New("S0").Set(estvec.TagFlops, 10e9).Set(estvec.TagGreenPerf, 100/10e9),
		estvec.New("S1").Set(estvec.TagFlops, 8e9).Set(estvec.TagGreenPerf, 120/8e9),
	}
	list.SortStable(sched.New(sched.GreenPerf).Less)
	for _, v := range list {
		fmt.Printf("%s %.0f nW/flops\n", v.Server, v.Value(estvec.TagGreenPerf, 0)*1e9)
	}
	// Output:
	// S0 10 nW/flops
	// S1 15 nW/flops
	// S2 25 nW/flops
}
