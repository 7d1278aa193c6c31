package sim

import (
	"strings"
	"testing"

	"greensched/internal/obs"
	"greensched/internal/sched"
	"greensched/internal/sla"
)

func runTraced(t *testing.T, cfg Config) ([]obs.Event, *Result) {
	t.Helper()
	var sb strings.Builder
	cfg.Modules = append(cfg.Modules, &TraceModule{W: &sb})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	return events, res
}

// TestTraceModuleLifecycleSequence: every completed task's trace walks
// the documented submit → admit → elect → solve → complete sequence,
// on virtual time, with the sim source stamped.
func TestTraceModuleLifecycleSequence(t *testing.T) {
	events, res := runTraced(t, Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.Power),
		Tasks:    tasks(20, 1e11, 2),
		Seed:     1,
	})
	byID := map[uint64][]string{}
	for _, ev := range events {
		if ev.Src != "sim" {
			t.Fatalf("event source %q, want sim: %+v", ev.Src, ev)
		}
		byID[ev.ID] = append(byID[ev.ID], ev.Event)
	}
	if len(byID) != res.Completed {
		t.Fatalf("traced %d tasks, result completed %d", len(byID), res.Completed)
	}
	want := []string{obs.EventSubmit, obs.EventAdmit, obs.EventElect, obs.EventSolve, obs.EventComplete}
	for id, seq := range byID {
		if len(seq) != len(want) {
			t.Fatalf("task %d sequence %v, want %v", id, seq, want)
		}
		for i := range want {
			if seq[i] != want[i] {
				t.Fatalf("task %d event %d = %s, want %s", id, i, seq[i], want[i])
			}
		}
	}
	// Virtual timestamps are monotone within a task and complete events
	// carry the execution's duration and energy share.
	for _, ev := range events {
		if ev.Event == obs.EventComplete && (ev.DurSec <= 0 || ev.EnergyJ <= 0 || ev.Server == "") {
			t.Errorf("complete event incomplete: %+v", ev)
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

// TestTraceModuleRejection: an admission refusal traces as submit →
// reject and nothing further.
func TestTraceModuleRejection(t *testing.T) {
	catalog := sla.Catalog{
		"doomed": {Name: "doomed", RelDeadlineSec: 1e-9, ValueUSD: 1, Curve: sla.HardDrop{}},
	}
	ts := tasks(1, 1e11, 1)
	ts[0].Class = "doomed"
	events, res := runTraced(t, Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.Power),
		Tasks:    ts,
		Modules:  []Module{&SLAModule{Config: &sla.Config{Catalog: catalog, Admission: &sla.Admission{Margin: 1}}}},
	})
	if res.Rejected != 1 {
		t.Fatalf("rejected %d, want 1", res.Rejected)
	}
	if len(events) != 2 || events[0].Event != obs.EventSubmit || events[1].Event != obs.EventReject {
		t.Fatalf("rejection trace = %+v, want [submit reject]", events)
	}
	if events[1].Err == "" || events[1].Class != "doomed" {
		t.Errorf("reject event missing reason or class: %+v", events[1])
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
