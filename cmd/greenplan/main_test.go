package main

import (
	"strings"
	"testing"

	"greensched/internal/provision"
)

func TestLintCleanPlan(t *testing.T) {
	plan := &provision.Plan{Records: []provision.Record{
		{Value: 0, Temperature: 22, Cost: 1.0, Candidates: 4},
		{Value: 600, Temperature: 23, Cost: 0.8, Candidates: 8},
	}}
	if problems := Lint(plan); len(problems) != 0 {
		t.Errorf("clean plan flagged: %v", problems)
	}
}

func TestLintEmptyPlan(t *testing.T) {
	if problems := Lint(&provision.Plan{}); len(problems) != 1 {
		t.Errorf("empty plan: %v", problems)
	}
}

func TestLintFindsEveryProblem(t *testing.T) {
	plan := &provision.Plan{Records: []provision.Record{
		{Value: 100, Temperature: 22, Cost: 1.5, Candidates: 2},  // bad cost
		{Value: 100, Temperature: 22, Cost: 0.5, Candidates: -1}, // dup + negative
		{Value: 50, Temperature: 200, Cost: 0.5, Candidates: 2},  // unordered + silly temp
	}}
	problems := Lint(plan)
	wants := []string{
		"cost 1.500",
		"duplicate timestamp",
		"negative candidate count",
		"timestamps not ascending",
		"implausible temperature",
	}
	joined := strings.Join(problems, "\n")
	for _, w := range wants {
		if !strings.Contains(joined, w) {
			t.Errorf("lint output missing %q:\n%s", w, joined)
		}
	}
}

// TestBadFlagReturnsUsage: an undefined flag comes back as errUsage
// instead of exiting the process, in every subcommand.
func TestBadFlagReturnsUsage(t *testing.T) {
	for name, run := range map[string]func([]string) error{
		"new": runNew, "show": runShow, "validate": runValidate, "decide": runDecide,
	} {
		if err := run([]string{"-nosuchflag"}); err != errUsage {
			t.Errorf("%s: bad flag: %v, want errUsage", name, err)
		}
	}
}
