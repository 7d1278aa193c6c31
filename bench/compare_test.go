package main

import (
	"bytes"
	"strings"
	"testing"
)

func setOf(workload string, vals map[string][]float64, layer map[string]float64) setReport {
	var rep setReport
	n := 0
	for _, v := range vals {
		n = len(v)
	}
	for i := 0; i < n; i++ {
		m := map[string]value{}
		for name, v := range vals {
			m[name] = value{Value: v[i], Unit: "x"}
		}
		rep.Runs = append(rep.Runs, setRun{Workload: workload, Seed: int64(i + 1), Result: result{Correct: true, Attempted: 1, Metrics: m}})
		lm := map[string]value{}
		for name, v := range layer {
			lm[name] = value{Value: v, Unit: "count"}
		}
		rep.Runs = append(rep.Runs, setRun{Workload: workload, Seed: int64(i + 1), Trace: true, Result: result{Correct: true, Attempted: 1, Metrics: lm}})
	}
	return rep
}

func TestCompareVerdicts(t *testing.T) {
	a := setOf("live-tcp", map[string][]float64{
		"ops_per_s":  {1000, 1010, 990, 1005, 995},
		"lat_p50_us": {100, 101, 99, 100, 100},
		"lat_p99_us": {500, 900, 300, 700, 400}, // noisy: spread far above the bound
	}, map[string]float64{"journal.appends_per_op": 3})
	b := setOf("live-tcp", map[string][]float64{
		"ops_per_s":  {2000, 2010, 1990, 2005, 1995}, // every run better
		"lat_p50_us": {140, 141, 139, 140, 140},      // 40% worse: out of the 25% bound
		"lat_p99_us": {510, 890, 310, 720, 390},
	}, map[string]float64{"journal.appends_per_op": 1})

	var out bytes.Buffer
	err := printComparison(a, b, &out)
	if err == nil {
		t.Error("a 40% latency regression exited clean")
	}
	text := out.String()
	for metric, verdict := range map[string]string{
		"ops_per_s":  "better in every run",
		"lat_p50_us": "REGRESSION",
		"lat_p99_us": "unresolved",
	} {
		found := false
		for _, line := range strings.Split(text, "\n") {
			if strings.Contains(line, metric) && strings.Contains(line, verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s not reported as %q in:\n%s", metric, verdict, text)
		}
	}
	if !strings.Contains(text, "exact count differs: live-tcp seed 1 journal.appends_per_op: 3 vs 1") {
		t.Errorf("changed exact count not reported:\n%s", text)
	}

	out.Reset()
	if err := printComparison(a, a, &out); err != nil {
		t.Errorf("a set against itself: %v", err)
	}
	if !strings.Contains(out.String(), ": 0 differ") {
		t.Errorf("a set differs from itself:\n%s", out.String())
	}
}

func TestSpreadReportFlagsWideMetrics(t *testing.T) {
	rep := setOf("sim-steady", map[string][]float64{
		"ops_per_s": {100, 101, 99, 100, 100, 100, 101, 99, 100, 100},
		"setup_s":   {1, 5, 1, 5, 1, 5, 1, 5, 1, 5}, // exempt from the spread rule
	}, nil)
	var out bytes.Buffer
	if err := printSpreads(rep, &out); err != nil {
		t.Errorf("steady set refused: %v\n%s", err, out.String())
	}
	rep = setOf("sim-steady", map[string][]float64{"ops_per_s": {100, 150, 60, 140, 70, 100, 150, 60, 140, 70}}, nil)
	if err := printSpreads(rep, &out); err == nil {
		t.Error("a metric spread wider than its bound was accepted")
	}
}
