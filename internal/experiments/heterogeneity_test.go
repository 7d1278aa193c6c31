package experiments

import (
	"bytes"
	"strings"
	"testing"

	"greensched/internal/cluster"
)

func TestSyntheticPlatformSpreadZeroIsHomogeneous(t *testing.T) {
	p, err := cluster.SyntheticPlatform(4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if idx := p.HeterogeneityIndex(); idx != 0 {
		t.Errorf("spread 0: heterogeneity index %v, want 0", idx)
	}
}

func TestSyntheticPlatformIndexGrowsWithSpread(t *testing.T) {
	prev := -1.0
	for _, s := range []float64{0.1, 0.3, 0.6, 1.0} {
		p, err := cluster.SyntheticPlatform(4, 2, s)
		if err != nil {
			t.Fatal(err)
		}
		idx := p.HeterogeneityIndex()
		if idx <= prev {
			t.Errorf("heterogeneity index not increasing at spread %v: %v <= %v", s, idx, prev)
		}
		prev = idx
	}
}

func TestSyntheticPlatformValidation(t *testing.T) {
	cases := []struct {
		types, per int
		spread     float64
	}{
		{1, 2, 0.5},
		{4, 0, 0.5},
		{4, 2, -0.1},
		{4, 2, 1.5},
	}
	for _, c := range cases {
		if _, err := cluster.SyntheticPlatform(c.types, c.per, c.spread); err == nil {
			t.Errorf("SyntheticPlatform(%d,%d,%v) must error", c.types, c.per, c.spread)
		}
	}
	// Every generated spec must survive platform validation at the
	// extremes.
	for _, s := range []float64{0, 1} {
		if _, err := cluster.SyntheticPlatform(4, 3, s); err != nil {
			t.Errorf("spread %v: %v", s, err)
		}
	}
}

func TestHeterogeneitySweepTradeoffSpaceGrows(t *testing.T) {
	// Three levels, and the five `greensched extensions` prints.
	for _, spreads := range [][]float64{{0.1, 0.5, 1.0}, {0.1, 0.25, 0.5, 0.75, 1.0}} {
		res, err := RunHeterogeneitySweep(heterogeneitySweepConfig(1), spreads)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Points) != len(spreads) {
			t.Fatalf("points = %d, want %d", len(res.Points), len(spreads))
		}
		first, last := res.Points[0], res.Points[len(res.Points)-1]
		// Figure 6 vs Figure 7, generalized: the trade-off space must be
		// several times wider at the diverse end than at the homogeneous
		// end, and the fitted trend must be strongly positive.
		if last.EnergySpread < 3*first.EnergySpread {
			t.Errorf("spreads %v: energy spread grew only %0.1f%% → %0.1f%%", spreads, first.EnergySpread, last.EnergySpread)
		}
		if res.Fit.Slope <= 0 {
			t.Errorf("spreads %v: fitted slope %v, want positive", spreads, res.Fit.Slope)
		}
		if res.Fit.R2 < 0.6 {
			t.Errorf("spreads %v: fit R² = %v, want ≥ 0.6", spreads, res.Fit.R2)
		}
		// At high heterogeneity GP must offer a genuinely good trade-off.
		if last.Quality > 0.4 {
			t.Errorf("spreads %v: GP tradeoff quality at spread 1.0 = %v, want ≤ 0.4", spreads, last.Quality)
		}
	}
}

func TestHeterogeneitySweepValidation(t *testing.T) {
	if _, err := RunHeterogeneitySweep(heterogeneitySweepConfig(1), []float64{0.5}); err == nil {
		t.Error("single level must error")
	}
	if _, err := RunHeterogeneitySweep(heterogeneitySweepConfig(1), []float64{0, 0.5}); err == nil {
		t.Error("zero spread must error")
	}
}

func TestHeterogeneitySweepRender(t *testing.T) {
	res, err := RunHeterogeneitySweep(heterogeneitySweepConfig(1), []float64{0.2, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Heterogeneity continuum", "het-index", "R²"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}
