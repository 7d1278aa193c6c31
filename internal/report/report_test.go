package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "Table II",
		Headers: []string{"Metric", "RANDOM", "POWER"},
	}
	tb.AddRow("Makespan (s)", "2336", "2321")
	tb.AddRow("Energy (J)", "6041436", "4528547")
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table II", "Makespan (s)", "6041436", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestBarChart(t *testing.T) {
	c := &BarChart{Title: "Fig 2", Unit: " tasks"}
	c.Add("taurus-0", 100)
	c.Add("sagittaire-0", 25)
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "##########") {
		t.Errorf("max bar not full width:\n%s", out)
	}
	if !strings.Contains(out, "100 tasks") || !strings.Contains(out, "25 tasks") {
		t.Errorf("values missing:\n%s", out)
	}
	// Rows keep insertion order.
	if strings.Index(out, "taurus-0") > strings.Index(out, "sagittaire-0") {
		t.Error("rows reordered")
	}
}

func TestBarChartZeroValues(t *testing.T) {
	c := &BarChart{}
	c.Add("empty", 0)
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "empty") {
		t.Fatal("zero-value row missing")
	}
}

func TestScatterRender(t *testing.T) {
	s := &Scatter{Title: "Fig 7", XLabel: "makespan (s)", YLabel: "energy (J)"}
	s.Add("G", 3000, 4.0e6)
	s.Add("GP", 2500, 4.5e6)
	s.Add("P", 2200, 5.5e6)
	s.SetBand(2400, 3100, 5.0e6, 6.2e6)
	var b strings.Builder
	if err := s.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Fig 7", "G: (3000", "GP: (2500", "P: (2200", "RANDOM area"} {
		if !strings.Contains(out, want) {
			t.Errorf("scatter missing %q:\n%s", want, out)
		}
	}
	// Legend sorted by label.
	if strings.Index(out, "G: (") > strings.Index(out, "P: (") {
		t.Error("legend unsorted")
	}
}

func TestScatterEmpty(t *testing.T) {
	s := &Scatter{Title: "empty"}
	var b strings.Builder
	if err := s.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no points") {
		t.Fatal("empty scatter should say so")
	}
}

func TestScatterDegenerateRange(t *testing.T) {
	s := &Scatter{}
	s.Add("A", 5, 5)
	s.Add("B", 5, 5) // identical point: zero range must not divide by zero
	var b strings.Builder
	if err := s.Render(&b); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeriesRender(t *testing.T) {
	ts := &TimeSeries{Title: "Fig 9"}
	ts.Add(600, 4, 800)
	ts.Add(1200, 8, 1500)
	var b strings.Builder
	if err := ts.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Fig 9") || !strings.Contains(out, "avg power (W)") {
		t.Errorf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "10") || !strings.Contains(out, "20") {
		t.Errorf("minutes missing:\n%s", out)
	}
	if !strings.Contains(out, "1500") {
		t.Errorf("watts missing:\n%s", out)
	}
}
