package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// exactLayerMetrics are counts the program makes that repeat exactly
// for a given seed; between two sets of the same commit they must be
// bit-identical, and between two commits a difference is a behaviour
// change, not noise.
var exactLayerMetrics = []string{
	"sim.mean_wait_s", "sim.makespan_s", "sim.preemptions", "sim.deadline_misses", "sim.rejected",
	"sim.module.hook_calls_per_task", "sched.less_calls_per_task",
	"journal.appends_per_op", "powerd.reads_per_op", "middleware.agent.candidates",
}

func readSet(path string) (setReport, error) {
	var rep setReport
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// samples collects, per workload, the values of every metric of one
// mode across the set's runs, in run order.
func (rep setReport) samples(trace bool) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rep.Runs {
		if r.Trace != trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// worseBy is how much worse b is than a, as a share of a: positive when
// the metric moved in its bad direction.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	change := (b - a) / a
	if d.Better == "higher" {
		return -change
	}
	return change
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(d metricDef, a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	if d.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func runCompare(files []string, w io.Writer) error {
	switch len(files) {
	case 1:
		rep, err := readSet(files[0])
		if err != nil {
			return err
		}
		return printSpreads(rep, w)
	case 2:
		a, err := readSet(files[0])
		if err != nil {
			return err
		}
		b, err := readSet(files[1])
		if err != nil {
			return err
		}
		return printComparison(a, b, w)
	}
	return fmt.Errorf("-compare takes one set report (spreads) or two (B against A)")
}

// printSpreads is the steadiness report of one set: per workload and
// end-to-end metric the median, quartiles and interquartile spread as a
// share of the median, against the metric's bound.
func printSpreads(rep setReport, w io.Writer) error {
	for _, line := range rep.Env.lines() {
		fmt.Fprintln(w, "#", line)
	}
	fmt.Fprintf(w, "%-13s %-14s %3s %14s %14s %14s %8s %6s\n", "workload", "metric", "n", "median", "q1", "q3", "spread", "bound")
	e2e := rep.samples(false)
	wide := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			vals := e2e[wl.Name][d.Name]
			if len(vals) == 0 {
				continue
			}
			q1, q3 := quartiles(vals)
			spread := spreadShare(vals)
			flag := ""
			// setup_s is exempt from the spread rule; its median is what is held.
			if d.Name != "setup_s" && len(vals) >= 2 {
				switch {
				case spread > d.Bound:
					flag = "  EXCEEDS BOUND"
					wide++
				case spread > d.Bound/3:
					flag = "  above a third of the bound"
				}
			}
			fmt.Fprintf(w, "%-13s %-14s %3d %14.6g %14.6g %14.6g %7.2f%% %5.0f%%%s\n",
				wl.Name, d.Name, len(vals), median(vals), q1, q3, 100*spread, 100*d.Bound, flag)
		}
	}
	if wide > 0 {
		return fmt.Errorf("%d metric/workload pairs spread wider than their bound", wide)
	}
	return nil
}

// printComparison holds set B against set A: per workload row and
// end-to-end metric both medians, how much worse B is, and the bound.
// A pair is `unresolved` when either set's own spread is wider than the
// bound (unless every run of B beats every run of A); it is a
// regression — and the exit code non-zero — when B's median is worse
// than A's by more than the bound.
func printComparison(a, b setReport, w io.Writer) error {
	fmt.Fprintf(w, "# A: commit %s, %d runs; B: commit %s, %d runs\n", a.Env.Commit, len(a.Runs), b.Env.Commit, len(b.Runs))
	fmt.Fprintf(w, "%-13s %-14s %14s %14s %9s %6s  %s\n", "workload", "metric", "median A", "median B", "worse by", "bound", "verdict")
	ea, eb := a.samples(false), b.samples(false)
	regressions := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := ea[wl.Name][d.Name], eb[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := worseBy(d, ma, mb)
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressions++
			case allBetter(d, va, vb):
				verdict = "better in every run"
			case d.Name != "setup_s" && (spreadShare(va) > d.Bound || spreadShare(vb) > d.Bound):
				verdict = fmt.Sprintf("unresolved (spreads %.1f%% / %.1f%%)", 100*spreadShare(va), 100*spreadShare(vb))
			}
			fmt.Fprintf(w, "%-13s %-14s %14.6g %14.6g %+8.2f%% %5.0f%%  %s\n", wl.Name, d.Name, ma, mb, 100*worse, 100*d.Bound, verdict)
		}
	}

	// Exact counts: compared run by run, on the seeds both sets share.
	type key struct {
		workload string
		seed     int64
	}
	index := func(rep setReport) map[key]map[string]value {
		out := map[key]map[string]value{}
		for _, r := range rep.Runs {
			if r.Trace {
				out[key{r.Workload, r.Seed}] = r.Result.Metrics
			}
		}
		return out
	}
	ia, ib := index(a), index(b)
	var keys []key
	for k := range ia {
		if _, ok := ib[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].seed < keys[j].seed
	})
	differ := 0
	for _, k := range keys {
		for _, name := range exactLayerMetrics {
			if x, y := ia[k][name].Value, ib[k][name].Value; x != y {
				fmt.Fprintf(w, "exact count differs: %s seed %d %s: %v vs %v\n", k.workload, k.seed, name, x, y)
				differ++
			}
		}
	}
	fmt.Fprintf(w, "# %d exact layer counts compared on %d shared (workload, seed) runs: %d differ\n", len(exactLayerMetrics)*len(keys), len(keys), differ)
	if regressions > 0 {
		return fmt.Errorf("%d metric/workload pairs worsened by more than their bound", regressions)
	}
	return nil
}
