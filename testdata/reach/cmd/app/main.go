// Command app is the one root of the reachability gate's fixture.
package main

import (
	"fmt"
	"sort"

	"reach/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	c := lib.Circle{R: 1}
	_ = lib.Other{}
	_ = lib.Quiet{}

	cfg := lib.Config{Keyed: 1}
	cfg.Assigned = 2
	cfg.Bumped++
	p := &cfg.Pointed

	var err error = lib.Failure{}
	words := lib.ByLen{"bb", "a"}
	sort.Sort(words)
	fmt.Println(lib.Finder{}.Find(), s.Area(), c.R, cfg.ReadOnly, *p, err, lib.Label("x"), words, lib.Pair{"k", "v"})
}
