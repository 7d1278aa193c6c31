package sim

import (
	"math"
	"strings"
	"testing"

	"greensched/internal/obs"
	"greensched/internal/sched"
	"greensched/internal/sla"
)

func runTraced(t *testing.T, cfg Config) ([]obs.Span, *Result) {
	t.Helper()
	var sb strings.Builder
	cfg.Modules = append(cfg.Modules, &TraceModule{W: &sb})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadSpans(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	return spans, res
}

// byTrace groups spans by trace, each trace's root first.
func byTrace(t *testing.T, spans []obs.Span) map[uint64][]obs.Span {
	t.Helper()
	out := map[uint64][]obs.Span{}
	for _, sp := range spans {
		if sp.Src != "sim" {
			t.Fatalf("span source %q, want sim: %+v", sp.Src, sp)
		}
		if sp.Parent == 0 {
			out[sp.TraceID] = append([]obs.Span{sp}, out[sp.TraceID]...)
		} else {
			out[sp.TraceID] = append(out[sp.TraceID], sp)
		}
	}
	return out
}

// TestTraceModuleLifecycleSequence: every completed task is one trace,
// a submit root naming the task and its energy share over admission,
// elect, queue and solve children; tasks that waited for a server also
// have a park child. The children tile the root: on a run without
// preemption or crash they sum to it within 1e-9 relative, so the
// analyzer finds no unexplained time.
func TestTraceModuleLifecycleSequence(t *testing.T) {
	ts := tasks(40, 1e11, 2)
	for i := range ts {
		ts[i].Submit += 2.5
	}
	// No node is a candidate between the first tick and t = 6: the
	// early arrivals park and retry.
	gate := &HookModule{OnTickFunc: func(now float64, ctl Control) {
		for _, n := range smallPlatform().Nodes {
			if err := ctl.SetCandidate(n.Name, now >= 6); err != nil {
				t.Fatal(err)
			}
		}
	}}
	spans, res := runTraced(t, Config{
		Platform:     smallPlatform(),
		Policy:       sched.New(sched.Power),
		Tasks:        ts,
		Seed:         1,
		ControlEvery: 1,
		Modules:      []Module{gate},
	})
	traces := byTrace(t, spans)
	if len(traces) != res.Completed || res.Completed != len(ts) {
		t.Fatalf("%d traces, %d completed of %d", len(traces), res.Completed, len(ts))
	}
	parked := 0
	for id, tr := range traces {
		root := tr[0]
		if root.Name != obs.StageSubmit || root.Parent != 0 || root.Err != "" ||
			root.Attrs["id"] == "" || root.Attrs["energy_j"] == "" || root.Attrs["energy_j"] == "0" {
			t.Fatalf("trace %d root = %+v", id, root)
		}
		stages := map[string]int{}
		leaves := 0.0
		for _, sp := range tr[1:] {
			if sp.Parent != root.SpanID || sp.Err != "" || sp.DurSec < 0 {
				t.Fatalf("trace %d child = %+v", id, sp)
			}
			if (sp.Name == obs.StageElect || sp.Name == obs.StageSolve) && sp.Attrs["server"] == "" {
				t.Fatalf("trace %d %s names no server: %+v", id, sp.Name, sp)
			}
			stages[sp.Name]++
			leaves += sp.DurSec
		}
		for _, s := range []string{obs.StageAdmission, obs.StageElect, obs.StageQueue, obs.StageSolve} {
			if stages[s] != 1 {
				t.Fatalf("trace %d has %d %s spans, want 1: %+v", id, stages[s], s, tr)
			}
		}
		parked += stages[obs.StagePark]
		if math.Abs(leaves-root.DurSec) > 1e-9*root.DurSec {
			t.Errorf("trace %d: children sum to %v, root lasts %v", id, leaves, root.DurSec)
		}
	}
	if parked == 0 {
		t.Fatal("no task parked; the candidacy gate did not bite")
	}
	rep := obs.AnalyzeSpans(spans)
	for _, ts := range rep.Traces {
		for _, sh := range ts.Shares {
			if sh.Stage == obs.OtherStage && sh.Frac > 1e-9 {
				t.Errorf("trace %d: %v of its time unexplained", ts.TraceID, sh.Frac)
			}
		}
	}
}

// TestTraceModuleDeterministic: same seed, byte-identical JSONL.
func TestTraceModuleDeterministic(t *testing.T) {
	run := func() string {
		var sb strings.Builder
		cfg := Config{
			Platform: smallPlatform(),
			Policy:   sched.New(sched.Random),
			Tasks:    tasks(30, 1e11, 2),
			Seed:     42,
			Modules:  []Module{&TraceModule{W: &sb}},
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatal("same seed produced different traces")
	}
}

// TestTraceModuleRejection: an admission refusal traces as a root and
// an admission span, both carrying the reason, and nothing further.
func TestTraceModuleRejection(t *testing.T) {
	catalog := sla.Catalog{
		"doomed": {Name: "doomed", RelDeadlineSec: 1e-9, ValueUSD: 1, Curve: sla.HardDrop{}},
	}
	ts := tasks(1, 1e11, 1)
	ts[0].Class = "doomed"
	spans, res := runTraced(t, Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.Power),
		Tasks:    ts,
		Modules:  []Module{&SLAModule{Config: &sla.Config{Catalog: catalog, Admission: &sla.Admission{Margin: 1}}}},
	})
	if res.Rejected != 1 {
		t.Fatalf("rejected %d, want 1", res.Rejected)
	}
	if len(spans) != 2 || spans[0].Name != obs.StageAdmission || spans[1].Name != obs.StageSubmit {
		t.Fatalf("rejection trace = %+v, want [admission submit]", spans)
	}
	if spans[0].Err == "" || spans[1].Err != spans[0].Err || spans[1].Attrs["class"] != "doomed" {
		t.Errorf("rejection spans missing reason or class: %+v", spans)
	}
}

// TestTraceModuleCrash: a crash ends the running solve spans with the
// reason, and the resubmitted tasks finish inside the same trace.
func TestTraceModuleCrash(t *testing.T) {
	spans, res := runTraced(t, Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.Performance),
		Tasks:    tasks(40, 5e11, 2),
		Explore:  true,
		Seed:     8,
		Crashes:  map[string]float64{"taurus-0": 30},
	})
	traces := byTrace(t, spans)
	if len(traces) != res.Completed {
		t.Fatalf("%d traces for %d completions", len(traces), res.Completed)
	}
	failed := 0
	for _, tr := range traces {
		for _, sp := range tr[1:] {
			if sp.Err == "" {
				continue
			}
			if sp.Name != obs.StageSolve || sp.Err != "node crash" || sp.Attrs["server"] != "taurus-0" {
				t.Fatalf("failed span = %+v", sp)
			}
			failed++
		}
	}
	if failed != res.Crashed || failed == 0 {
		t.Fatalf("%d failed solve spans for %d crashed executions", failed, res.Crashed)
	}
}

// TestTraceModuleConfig: a trace module without a writer is a
// construction error.
func TestTraceModuleConfig(t *testing.T) {
	_, err := Run(Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.Power),
		Tasks:    tasks(1, 1e10, 1),
		Modules:  []Module{&TraceModule{}},
	})
	if err == nil {
		t.Error("trace module without a writer accepted")
	}
}
