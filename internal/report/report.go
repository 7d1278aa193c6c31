// Package report renders experiment outputs as the ASCII equivalents
// of the paper's tables and figures.
package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// PerTask renders the per-completed-task cost pair — joules next to
// grams — that experiment harnesses print under their tables (the
// per-request carbon attribution of the ROADMAP follow-on).
func PerTask(joules, grams float64) string {
	return fmt.Sprintf("%.0f J/task, %.2f gCO2/task", joules, grams)
}

// Table is a simple aligned-column text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// BarChart renders a horizontal ASCII bar chart — the stand-in for the
// paper's per-node task histograms (Figures 2–4) and per-cluster
// energy bars (Figure 5).
type BarChart struct {
	Title string
	Unit  string

	labels []string
	values []float64
}

// Add appends a labelled value.
func (c *BarChart) Add(label string, value float64) {
	c.labels = append(c.labels, label)
	c.values = append(c.values, value)
}

// Render writes the chart.
func (c *BarChart) Render(w io.Writer) error {
	const width = 50 // characters in the longest bar
	maxV, maxL := 0.0, 0
	for i, v := range c.values {
		maxV = math.Max(maxV, v)
		if len(c.labels[i]) > maxL {
			maxL = len(c.labels[i])
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for i, v := range c.values {
		n := 0
		if maxV > 0 {
			n = int(math.Round(v / maxV * float64(width)))
		}
		fmt.Fprintf(&b, "%-*s | %s %.6g%s\n", maxL, c.labels[i], strings.Repeat("#", n), v, c.Unit)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Scatter renders labelled (x, y) points plus optional envelopes as a
// coarse ASCII plane — the Figures 6/7 stand-in. Points outside every
// envelope are plotted with their label's first rune.
type Scatter struct {
	Title  string
	XLabel string
	YLabel string

	labels []string
	xs     []float64
	ys     []float64
	band   *struct{ minX, maxX, minY, maxY float64 }
}

// Add places a labelled point.
func (s *Scatter) Add(label string, x, y float64) {
	s.labels = append(s.labels, label)
	s.xs = append(s.xs, x)
	s.ys = append(s.ys, y)
}

// SetBand sets the shaded RANDOM envelope.
func (s *Scatter) SetBand(minX, maxX, minY, maxY float64) {
	s.band = &struct{ minX, maxX, minY, maxY float64 }{minX, maxX, minY, maxY}
}

// Render writes the plot followed by a point legend.
func (s *Scatter) Render(w io.Writer) error {
	const cols, lines = 60, 16
	if len(s.xs) == 0 {
		_, err := fmt.Fprintf(w, "%s\n(no points)\n", s.Title)
		return err
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	grow := func(x, y float64) {
		minX, maxX = math.Min(minX, x), math.Max(maxX, x)
		minY, maxY = math.Min(minY, y), math.Max(maxY, y)
	}
	for i := range s.xs {
		grow(s.xs[i], s.ys[i])
	}
	if s.band != nil {
		grow(s.band.minX, s.band.minY)
		grow(s.band.maxX, s.band.maxY)
	}
	// Pad degenerate ranges.
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	padX, padY := (maxX-minX)*0.05, (maxY-minY)*0.05
	minX, maxX = minX-padX, maxX+padX
	minY, maxY = minY-padY, maxY+padY

	grid := make([][]rune, lines)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", cols))
	}
	toCell := func(x, y float64) (int, int) {
		cx := int((x - minX) / (maxX - minX) * float64(cols-1))
		cy := int((maxY - y) / (maxY - minY) * float64(lines-1))
		return cx, cy
	}
	if s.band != nil {
		for _, y := range []float64{s.band.minY, s.band.maxY} {
			for x := s.band.minX; x <= s.band.maxX; x += (maxX - minX) / float64(cols) {
				cx, cy := toCell(x, y)
				grid[cy][cx] = '.'
			}
		}
		for _, x := range []float64{s.band.minX, s.band.maxX} {
			for y := s.band.minY; y <= s.band.maxY; y += (maxY - minY) / float64(lines) {
				cx, cy := toCell(x, y)
				grid[cy][cx] = '.'
			}
		}
	}
	for i := range s.xs {
		cx, cy := toCell(s.xs[i], s.ys[i])
		r := '*'
		if len(s.labels[i]) > 0 {
			r = []rune(s.labels[i])[0]
		}
		grid[cy][cx] = r
	}
	var b strings.Builder
	if s.Title != "" {
		fmt.Fprintf(&b, "%s\n", s.Title)
	}
	fmt.Fprintf(&b, "%s ^\n", s.YLabel)
	for _, row := range grid {
		fmt.Fprintf(&b, "  |%s\n", string(row))
	}
	fmt.Fprintf(&b, "  +%s> %s\n", strings.Repeat("-", cols), s.XLabel)
	// Legend sorted by label for stable output.
	idx := make([]int, len(s.labels))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.labels[idx[a]] < s.labels[idx[b]] })
	for _, i := range idx {
		fmt.Fprintf(&b, "  %s: (%.6g, %.6g)\n", s.labels[i], s.xs[i], s.ys[i])
	}
	if s.band != nil {
		fmt.Fprintf(&b, "  RANDOM area: x∈[%.6g,%.6g] y∈[%.6g,%.6g]\n",
			s.band.minX, s.band.maxX, s.band.minY, s.band.maxY)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// TimeSeries renders a two-axis series (the Figure 9 stand-in): an
// integer step series (candidates, left axis) and a float series
// (average watts, right axis) over shared timestamps.
type TimeSeries struct {
	Title string

	t     []float64
	left  []float64
	right []float64
}

// Add appends one sample.
func (ts *TimeSeries) Add(t, left, right float64) {
	ts.t = append(ts.t, t)
	ts.left = append(ts.left, left)
	ts.right = append(ts.right, right)
}

// Render writes "minute  candidates  watts" rows with spark bars.
func (ts *TimeSeries) Render(w io.Writer) error {
	var b strings.Builder
	if ts.Title != "" {
		fmt.Fprintf(&b, "%s\n", ts.Title)
	}
	maxL, maxR := 0.0, 0.0
	for i := range ts.t {
		maxL = math.Max(maxL, ts.left[i])
		maxR = math.Max(maxR, ts.right[i])
	}
	fmt.Fprintf(&b, "%8s  %28s  %s\n", "min", "candidates", "avg power (W)")
	for i := range ts.t {
		lBar, rBar := 0, 0
		if maxL > 0 {
			lBar = int(math.Round(ts.left[i] / maxL * 12))
		}
		if maxR > 0 {
			rBar = int(math.Round(ts.right[i] / maxR * 24))
		}
		fmt.Fprintf(&b, "%8.0f  %2.0f %-25s  %7.0f %s\n",
			ts.t[i]/60, ts.left[i], strings.Repeat("#", lBar), ts.right[i], strings.Repeat("+", rBar))
	}
	_, err := io.WriteString(w, b.String())
	return err
}
