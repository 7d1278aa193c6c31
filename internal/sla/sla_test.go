package sla

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"greensched/internal/workload"
)

func TestCurveShapes(t *testing.T) {
	cases := []struct {
		name     string
		c        Curve
		lateness float64
		want     float64
	}{
		{"flat early", Flat{}, -10, 1},
		{"flat late", Flat{}, 1e6, 1},
		{"hard on time", HardDrop{}, 0, 1},
		{"hard late", HardDrop{}, 0.001, 0},
		{"linear on time", LinearDecay{DecaySec: 100}, -1, 1},
		{"linear half", LinearDecay{DecaySec: 100}, 50, 0.5},
		{"linear floor", LinearDecay{DecaySec: 100}, 500, 0},
		{"linear penalty floor", LinearDecay{DecaySec: 100, Floor: -0.5}, 100, -0.5},
		{"linear midway to penalty", LinearDecay{DecaySec: 100, Floor: -1}, 50, 0},
		{"stepped on time", Stepped{Steps: []Step{{0, 0.5}, {60, 0}}}, 0, 1},
		{"stepped first", Stepped{Steps: []Step{{0, 0.5}, {60, 0}}}, 30, 0.5},
		{"stepped at boundary", Stepped{Steps: []Step{{0, 0.5}, {60, 0}}}, 60, 0},
		{"stepped beyond", Stepped{Steps: []Step{{0, 0.5}, {60, 0}, {300, -0.25}}}, 400, -0.25},
	}
	for _, c := range cases {
		if got := c.c.Retained(c.lateness); got != c.want {
			t.Errorf("%s: Retained(%v) = %v, want %v", c.name, c.lateness, got, c.want)
		}
	}
}

func TestCurveMonotone(t *testing.T) {
	curves := []Curve{
		HardDrop{}, Flat{},
		LinearDecay{DecaySec: 120, Floor: -0.5},
		Stepped{Steps: []Step{{0, 0.8}, {30, 0.3}, {600, -1}}},
	}
	for _, c := range curves {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		prev := math.Inf(1)
		for late := -10.0; late < 1000; late += 7 {
			got := c.Retained(late)
			if got > prev {
				t.Fatalf("%s not non-increasing at lateness %v: %v > %v", c.Name(), late, got, prev)
			}
			prev = got
		}
	}
}

func TestCurveValidation(t *testing.T) {
	bad := []Curve{
		LinearDecay{DecaySec: 0},
		LinearDecay{DecaySec: 10, Floor: 2},
		Stepped{},
		Stepped{Steps: []Step{{AfterSec: -1, Retained: 0.5}}},
		Stepped{Steps: []Step{{0, 0.5}, {0, 0.2}}},  // not strictly increasing
		Stepped{Steps: []Step{{0, 0.2}, {10, 0.5}}}, // retained increases
		Stepped{Steps: []Step{{0, 1.5}}},            // above full value
		Stepped{Steps: []Step{{5, 0.9}, {2, 0.1}}},  // unsorted
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad curve %d (%s) validated", i, c.Name())
		}
	}
}

func TestCatalogResolve(t *testing.T) {
	cat := DefaultCatalog()
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}

	// Class defaults fill value, deadline and curve.
	terms := cat.Resolve(workload.Task{ID: 1, Ops: 1, Submit: 100, Class: ClassDeadline})
	if terms.Deadline != 100+3600 || terms.ValueUSD != 0.50 {
		t.Errorf("class defaults not applied: %+v", terms)
	}
	if terms.Curve.Name() != "hard-drop" {
		t.Errorf("deadline class curve = %s", terms.Curve.Name())
	}

	// Explicit task fields override the class.
	terms = cat.Resolve(workload.Task{ID: 2, Ops: 1, Submit: 100, Class: ClassDeadline, Deadline: 400, Value: 9})
	if terms.Deadline != 400 || terms.ValueUSD != 9 {
		t.Errorf("explicit fields lost: %+v", terms)
	}

	// Unclassified with a bare deadline: hard-drop fail-safe.
	terms = cat.Resolve(workload.Task{ID: 3, Ops: 1, Submit: 0, Deadline: 50, Value: 1})
	if terms.Curve.Name() != "hard-drop" {
		t.Errorf("bare deadline curve = %s, want hard-drop", terms.Curve.Name())
	}

	// Unclassified best effort: flat.
	terms = cat.Resolve(workload.Task{ID: 4, Ops: 1, Submit: 0})
	if terms.Curve.Name() != "flat" || terms.Deadline != 0 {
		t.Errorf("best-effort terms = %+v", terms)
	}
}

func TestCatalogValidateKeyMismatch(t *testing.T) {
	cat := Catalog{"a": {Name: "b"}}
	if err := cat.Validate(); err == nil {
		t.Error("key/name mismatch validated")
	}
}

func TestTermsEarned(t *testing.T) {
	terms := Terms{Class: "x", Deadline: 100, ValueUSD: 2, Curve: LinearDecay{DecaySec: 100, Floor: -0.5}}
	if got := terms.EarnedUSD(50); got != 2 {
		t.Errorf("on-time earned %v", got)
	}
	if got := terms.EarnedUSD(150); got != 0.5 {
		t.Errorf("half-late earned %v, want 0.5", got)
	}
	if got := terms.EarnedUSD(1000); got != -1 {
		t.Errorf("penalty earned %v, want -1", got)
	}
	if got := terms.Lateness(150); got != 50 {
		t.Errorf("lateness %v", got)
	}
}

func TestAdmissionVerdicts(t *testing.T) {
	a := Admission{}
	hard := Terms{Class: "d", Deadline: 1000, ValueUSD: 1, Curve: HardDrop{}}
	soft := Terms{Class: "s", Deadline: 1000, ValueUSD: 1, Curve: LinearDecay{DecaySec: 600}}
	free := Terms{Curve: Flat{}}

	if v := a.Decide(0, 500, hard); v != Admit {
		t.Errorf("feasible hard task: %v", v)
	}
	if v := a.Decide(800, 500, hard); v != Reject {
		t.Errorf("hopeless hard task: %v (running it earns nothing)", v)
	}
	if v := a.Decide(800, 500, soft); v != AdmitLate {
		t.Errorf("late-but-valuable soft task: %v", v)
	}
	if v := a.Decide(0, 1e9, free); v != Admit {
		t.Errorf("best-effort task: %v", v)
	}
	// Margin reserves headroom: 900 × 1.5 > 1000.
	m := Admission{Margin: 1.5}
	if v := m.Decide(0, 900, hard); v != Reject {
		t.Errorf("margin not applied: %v", v)
	}
	if a.Decide(0, 900, hard) != Admit {
		t.Error("default margin rejected a feasible task")
	}
	// Verdicts render.
	for _, v := range []Verdict{Admit, AdmitLate, Reject} {
		if v.String() == "" || strings.HasPrefix(v.String(), "verdict(") {
			t.Errorf("verdict %d renders %q", int(v), v.String())
		}
	}
}

func TestAdmissionValidate(t *testing.T) {
	if err := (Admission{Margin: -1}).Validate(); err == nil {
		t.Error("negative margin validated")
	}
	if err := (Admission{}).Validate(); err != nil {
		t.Errorf("zero margin (default) rejected: %v", err)
	}
}

func TestLedgerAccounting(t *testing.T) {
	l := NewLedger()
	hard := Terms{Class: "deadline", Deadline: 100, ValueUSD: 2, Curve: HardDrop{}}
	pen := Terms{Class: "interactive", Deadline: 100, ValueUSD: 4, Curve: Stepped{Steps: []Step{{0, -0.25}}}}
	flat := Terms{Class: "", ValueUSD: 1, Curve: Flat{}}

	l.Complete(hard, 90)  // on time: +2
	l.Complete(hard, 150) // late: forfeits 2
	l.Complete(pen, 50)   // on time: +4
	l.Complete(pen, 200)  // late: forfeits 4, penalty 1
	l.Complete(flat, 1e6) // best effort always earns
	l.Reject(hard)        // forfeits 2

	s := l.Summarize(1000, 50)
	if s.EarnedUSD != 7 {
		t.Errorf("earned %v, want 7", s.EarnedUSD)
	}
	if s.ForfeitedUSD != 8 {
		t.Errorf("forfeited %v, want 8 (2 late + 4 late + 2 rejected)", s.ForfeitedUSD)
	}
	if s.PenaltyUSD != 1 {
		t.Errorf("penalty %v, want 1", s.PenaltyUSD)
	}
	if s.Completed != 5 || s.OnTime != 3 || s.Misses != 2 || s.Rejected != 1 {
		t.Errorf("counts %+v", s)
	}
	if s.NetUSD() != 6 {
		t.Errorf("net %v", s.NetUSD())
	}
	if got := s.JoulesPerUSD; math.Abs(got-1000.0/6) > 1e-9 {
		t.Errorf("J/$ = %v", got)
	}
	if got := s.GramsPerUSD; math.Abs(got-50.0/6) > 1e-9 {
		t.Errorf("g/$ = %v", got)
	}
	// Per-class split, sorted by name; unclassified lands in
	// best-effort.
	if len(s.PerClass) != 3 || s.PerClass[0].Class != "best-effort" ||
		s.PerClass[1].Class != "deadline" || s.PerClass[2].Class != "interactive" {
		t.Fatalf("per-class %+v", s.PerClass)
	}
	d := s.PerClass[1]
	if d.Completed != 2 || d.Misses != 1 || d.Rejected != 1 || d.EarnedUSD != 2 || d.ForfeitedUSD != 4 {
		t.Errorf("deadline account %+v", d)
	}
	if d.WorstLateness != 50 {
		t.Errorf("worst lateness %v", d.WorstLateness)
	}
	// Slack over the two deadline completions: 10 + (−50).
	if got := d.SlackSum; got != -40 {
		t.Errorf("slack sum %v, want -40", got)
	}

	var b strings.Builder
	if err := s.Render(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"best-effort", "deadline", "interactive", "total earned"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("render missing %q:\n%s", want, b.String())
		}
	}
}

func TestLedgerEarnsNothing(t *testing.T) {
	l := NewLedger()
	l.Reject(Terms{Class: "d", ValueUSD: 5, Curve: HardDrop{}})
	s := l.Summarize(100, 10)
	if !math.IsInf(s.JoulesPerUSD, 1) || !math.IsInf(s.GramsPerUSD, 1) {
		t.Errorf("zero-revenue intensities = %v, %v; want +Inf", s.JoulesPerUSD, s.GramsPerUSD)
	}
	// The report renders the sentinel as n/a, never "+Inf J/$".
	var b strings.Builder
	if err := s.Render(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "Inf") {
		t.Errorf("render leaks the Inf sentinel:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "n/a J/$, n/a gCO2/$") {
		t.Errorf("render missing n/a intensities:\n%s", b.String())
	}
}

func TestConfigValidate(t *testing.T) {
	var nilCfg *Config
	if err := nilCfg.Validate(); err == nil {
		t.Error("nil config validated")
	}
	bad := &Config{Catalog: Catalog{"a": {Name: "b"}}}
	if err := bad.Validate(); err == nil {
		t.Error("bad catalog validated")
	}
	bad = &Config{Admission: &Admission{Margin: -2}}
	if err := bad.Validate(); err == nil {
		t.Error("bad admission validated")
	}
	ok := &Config{}
	if err := ok.Validate(); err != nil {
		t.Errorf("empty config rejected: %v", err)
	}
	if len(ok.EffectiveCatalog()) == 0 {
		t.Error("empty config has no effective catalog")
	}
}

// TestSummarizeIsOrderIndependent pins the ledger's determinism
// contract: dollar totals must be bit-for-bit identical however Go
// happens to order the accounts map, because simulation determinism
// tests compare Results exactly. (Summarize folds accounts in sorted
// class order; summing in map order flakes by one ULP.)
func TestSummarizeIsOrderIndependent(t *testing.T) {
	build := func() Summary {
		l := NewLedger()
		for i, class := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
			terms := Terms{Class: class, Deadline: 100, ValueUSD: 0.1 * float64(i+1), Curve: Stepped{
				Steps: []Step{{AfterSec: 0, Retained: 0.3}, {AfterSec: 60, Retained: -0.1}},
			}}
			l.Complete(terms, 90+float64(i))
			l.Complete(terms, 110+float64(i)*7)
			l.Reject(terms)
		}
		return l.Summarize(1234.567, 89.1011)
	}
	want := build()
	for i := 0; i < 25; i++ {
		if got := build(); !reflect.DeepEqual(got, want) {
			t.Fatalf("summary %d diverged:\n%+v\n%+v", i, got, want)
		}
	}
}
