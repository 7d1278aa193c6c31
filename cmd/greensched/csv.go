package main

import (
	"fmt"
	"strings"

	"greensched/internal/experiments"
	"greensched/internal/sim"
)

// The -csv flag's renderers: the paper's figure data as CSV for
// external plotting.

// tasksPerNodeCSV renders the Figures 2-4 data (node,tasks).
func tasksPerNodeCSV(res *sim.Result, nodeOrder []string) string {
	var b strings.Builder
	b.WriteString("node,tasks\n")
	for _, n := range nodeOrder {
		fmt.Fprintf(&b, "%s,%d\n", n, res.PerNodeTasks[n])
	}
	return b.String()
}

// clusterEnergyCSV renders the Figure 5 data (cluster,joules).
func clusterEnergyCSV(res *sim.Result, clusterOrder []string) string {
	var b strings.Builder
	b.WriteString("cluster,energy_j\n")
	for _, c := range clusterOrder {
		fmt.Fprintf(&b, "%s,%.1f\n", c, res.PerClusterEnergy[c])
	}
	return b.String()
}

// adaptiveCSV renders the Figure 9 data (minute,candidates,avg_w).
func adaptiveCSV(res *experiments.AdaptiveResult) string {
	var b strings.Builder
	b.WriteString("minute,candidates,avg_w,running\n")
	for _, s := range res.Samples {
		fmt.Fprintf(&b, "%.0f,%d,%.1f,%d\n", s.T/60, s.Candidates, s.AvgW, s.Running)
	}
	return b.String()
}
