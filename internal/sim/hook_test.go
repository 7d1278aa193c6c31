package sim

import (
	"sort"
	"strings"
	"testing"

	"greensched/internal/estvec"
	"greensched/internal/sched"
)

func TestOnFinishHookObservesEveryTask(t *testing.T) {
	var seen []TaskRecord
	res, err := runRecorded(Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.Power),
		Tasks:    tasks(25, 1e11, 2),
		Explore:  true,
		Seed:     3,
		Modules:  []Module{&HookModule{OnFinishFunc: func(rec TaskRecord) { seen = append(seen, rec) }}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != res.Completed {
		t.Fatalf("hook saw %d records, want %d", len(seen), res.Completed)
	}
	// Hook order is completion order (non-decreasing finish times).
	if !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i].Finish < seen[j].Finish }) {
		t.Fatal("hook records out of completion order")
	}
	// Records match the result set exactly.
	byID := map[int]TaskRecord{}
	for _, rec := range res.Records {
		byID[rec.ID] = rec
	}
	for _, rec := range seen {
		if byID[rec.ID] != rec {
			t.Fatalf("hook record %+v diverges from result record %+v", rec, byID[rec.ID])
		}
	}
}

func TestOnFinishHookCanSteerPolicy(t *testing.T) {
	// A toy controller: after 10 completions flip a flag the policy
	// reads — verifies hooks run synchronously inside the event loop
	// and later elections observe controller state.
	flipped := false
	count := 0
	pol := flagPolicy{flag: &flipped}
	res, err := Run(Config{
		Platform: smallPlatform(),
		Policy:   pol,
		Tasks:    tasks(40, 1e11, 1),
		Seed:     4,
		Modules: []Module{
			&HookModule{OnFinishFunc: func(TaskRecord) {
				count++
				if count == 10 {
					flipped = true
				}
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !flipped {
		t.Fatal("controller never flipped")
	}
	if res.Completed != 40 {
		t.Fatal("tasks lost")
	}
}

// flagPolicy prefers taurus before the flip and sagittaire after.
type flagPolicy struct{ flag *bool }

func (flagPolicy) Name() string { return "FLAG" }
func (p flagPolicy) Less(a, b *estvec.Vector) bool {
	prefer := "taurus"
	if *p.flag {
		prefer = "sagittaire"
	}
	aPref := strings.HasPrefix(a.Server, prefer)
	bPref := strings.HasPrefix(b.Server, prefer)
	if aPref != bPref {
		return aPref
	}
	return a.Server < b.Server
}
