package estvec_test

import (
	"fmt"

	"greensched/internal/estvec"
)

// ExampleVector shows a SED populating the paper's energy tags and an
// agent sorting responses by them.
func ExampleVector() {
	taurus := estvec.New("taurus-0").
		Set(estvec.TagFlops, 9.0e9).
		Set(estvec.TagPowerW, 151).
		Set(estvec.TagGreenPerf, 151/9.0e9)
	orion := estvec.New("orion-0").
		Set(estvec.TagFlops, 9.6e9).
		Set(estvec.TagPowerW, 339).
		Set(estvec.TagGreenPerf, 339/9.6e9)

	list := estvec.List{orion, taurus}
	list.SortStable(estvec.ByTagAsc(estvec.TagGreenPerf, estvec.ByServerName))
	for _, v := range list {
		fmt.Println(v.Server)
	}
	// Output:
	// taurus-0
	// orion-0
}
