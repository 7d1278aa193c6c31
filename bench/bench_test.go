package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"greensched/internal/obs"
)

func tinyParams(t *testing.T, trace bool) params {
	return params{Seed: goldenSeed, Seconds: 0.2, Trace: trace, Tiny: true, OutDir: t.TempDir()}
}

// Every workload, both modes, at about a thousand tasks or a fifth of a
// second: each run must pass its own correctness checks and emit exactly
// the metrics its mode declares — finite, unit-tagged, well-named.
func TestEveryWorkloadEmitsItsCatalog(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o, err := w.Run(tinyParams(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !o.Correct {
				t.Errorf("%s trace=%v: checks failed:\n%s", w.Name, trace, strings.Join(o.Notes, "\n"))
			}
			res, err := seal(o, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s missing", w.Name, d.Name)
				case v.Unit != d.Unit || v.Unit == "":
					t.Errorf("%s: %s unit %q, declared %q", w.Name, d.Name, v.Unit, d.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", w.Name, d.Name, v.Value)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v.Value)
				}
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.Name, trace, res.Attempted, res.Failed)
			}
			if trace {
				checkSpanFile(t, w.Name, o)
			}
		}
	}
}

// checkSpanFile reads the traced run's span file back through the
// repository's own reader.
func checkSpanFile(t *testing.T, name string, o *outcome) {
	t.Helper()
	path := o.SpanFile
	if path == "" {
		t.Errorf("%s: traced run wrote no span file", name)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	defer f.Close()
	spans, err := obs.ReadSpans(f)
	if err != nil || len(spans) == 0 {
		t.Errorf("%s: %d spans read back, err %v", name, len(spans), err)
		return
	}
	roots := 0
	for _, sp := range spans {
		if sp.Src == "" || sp.Name == "" || sp.DurSec < 0 {
			t.Errorf("%s: malformed span %+v", name, sp)
			return
		}
		if sp.Parent == 0 {
			roots++
		}
	}
	if roots == 0 {
		t.Errorf("%s: no root span among %d", name, len(spans))
	}
}

func TestCatalogNamesAndUnits(t *testing.T) {
	metricName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	unit := func(u string) bool {
		if u == "" || len(u) > 16 {
			return false
		}
		return strings.Trim(u, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") == ""
	}
	check := func(kind, name string) {
		if !metricName.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name)
		if !unit(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is malformed", d)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		check("per-layer metric", d.Name)
		if !unit(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound != 0 {
			t.Errorf("per-layer metric %+v is malformed", d)
		}
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, name := range exactLayerMetrics {
		if !seen[name] {
			t.Errorf("exact layer metric %q is not declared", name)
		}
	}
}

// BENCHMARK.json is generated (`-manifest`), never edited.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the catalogs; regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(got, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := m[key]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", key)
		}
		delete(m, key)
	}
	for key := range m {
		t.Errorf("BENCHMARK.json has an extra key %q", key)
	}
}

// A books check must be able to fail: with one completion dropped from
// the benchmark's own books, the run reports correct=false.
func TestBrokenBooksFailTheRun(t *testing.T) {
	p := tinyParams(t, false)
	p.breakBooks = true
	o, err := runLiveJournal(p)
	if err != nil {
		t.Fatal(err)
	}
	if o.Correct {
		t.Fatal("a dropped completion went unnoticed")
	}
	if !strings.Contains(strings.Join(o.Notes, "\n"), "CHECK FAILED") {
		t.Errorf("failure not explained: %v", o.Notes)
	}
	var out bytes.Buffer
	if err := runOne(workloadDef{Name: "live-journal", Run: func(params) (*outcome, error) { return o, nil }}, p, &out); err == nil {
		t.Error("runOne returned no error for an incorrect run")
	}
	res, err := lastLineResult(out.Bytes())
	if err != nil || res.Correct {
		t.Errorf("incorrect run printed result %+v, err %v", res, err)
	}
}

func TestSealRejectsUndeclaredAndMissingMetrics(t *testing.T) {
	full := func() *outcome {
		o := &outcome{Correct: true, Attempted: 1, Metrics: map[string]float64{}}
		for _, d := range endToEnd {
			o.Metrics[d.Name] = 1
		}
		return o
	}
	if _, err := seal(full(), false); err != nil {
		t.Fatalf("complete outcome refused: %v", err)
	}
	o := full()
	o.Metrics["made.up"] = 1
	if _, err := seal(o, false); err == nil {
		t.Error("undeclared metric accepted")
	}
	o = full()
	delete(o.Metrics, "ops_per_s")
	if _, err := seal(o, false); err == nil {
		t.Error("missing metric accepted")
	}
	o = full()
	o.Metrics["ops_per_s"] = math.NaN()
	if _, err := seal(o, false); err == nil {
		t.Error("NaN accepted")
	}
	o = full()
	o.Attempted = 0
	if _, err := seal(o, false); err == nil {
		t.Error("a run that attempted nothing accepted")
	}
}
