package carbon

import (
	"math"
	"testing"

	"greensched/internal/forecast"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestConstantSignal(t *testing.T) {
	c := Constant{G: 300, R: 0.2}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.IntensityAt(0) != 300 || c.IntensityAt(1e6) != 300 {
		t.Error("constant intensity must not vary")
	}
	if c.MeanIntensity(0, 86400) != 300 {
		t.Error("constant mean must equal the level")
	}
	if c.RenewableAt(42) != 0.2 {
		t.Error("constant renewable fraction wrong")
	}
	if (Constant{G: -1}).Validate() == nil {
		t.Error("negative intensity must be rejected")
	}
}

func TestDiurnalShape(t *testing.T) {
	d := Diurnal{MeanG: 300, AmplitudeG: 200, CleanHour: 13, RenewableMin: 0.1, RenewableMax: 0.7}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Cleanest at 13:00, dirtiest 12 hours away.
	almost(t, d.IntensityAt(13*3600), 100, 1e-9, "intensity at clean hour")
	almost(t, d.IntensityAt(1*3600), 500, 1e-9, "intensity at dirty hour")
	// Renewables peak when the grid is cleanest.
	almost(t, d.RenewableAt(13*3600), 0.7, 1e-9, "renewable at clean hour")
	almost(t, d.RenewableAt(1*3600), 0.1, 1e-9, "renewable at dirty hour")
	// Same hour next day: identical.
	almost(t, d.IntensityAt(13*3600+DaySeconds), 100, 1e-9, "period")
}

func TestDiurnalMeanIntensityAnalytic(t *testing.T) {
	d := Diurnal{MeanG: 320, AmplitudeG: 180, CleanHour: 14}
	// Full-day mean must be the configured mean.
	almost(t, d.MeanIntensity(0, DaySeconds), 320, 1e-9, "full-day mean")
	// Arbitrary window: compare against fine numeric integration.
	t0, t1 := 5*3600.0, 19*3600.0
	sum := 0.0
	const n = 200000
	dt := (t1 - t0) / n
	for i := 0; i < n; i++ {
		sum += d.IntensityAt(t0+(float64(i)+0.5)*dt) * dt
	}
	almost(t, d.MeanIntensity(t0, t1), sum/(t1-t0), 1e-4, "window mean")
	// Degenerate interval falls back to the point value.
	almost(t, d.MeanIntensity(t0, t0), d.IntensityAt(t0), 1e-9, "empty interval")
}

func TestDiurnalValidate(t *testing.T) {
	cases := []Diurnal{
		{MeanG: 0, AmplitudeG: 0},
		{MeanG: 100, AmplitudeG: 150},
		{MeanG: 100, AmplitudeG: 50, CleanHour: 24},
		{MeanG: 100, AmplitudeG: 50, RenewableMin: 0.8, RenewableMax: 0.2},
	}
	for i, d := range cases {
		if d.Validate() == nil {
			t.Errorf("case %d: %+v must be rejected", i, d)
		}
	}
}

func TestScheduleFromTariff(t *testing.T) {
	s, err := FromTariff(forecast.PaperTariff(), 100, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Regular 08-22h cost 1.0 → 500; off-peak-2 02-08h cost 0.5 → 300.
	almost(t, s.IntensityAt(12*3600), 500, 1e-9, "regular hours")
	almost(t, s.IntensityAt(4*3600), 300, 1e-9, "off-peak-2 hours")
	// Off-peak-1 wraps midnight: 23h and 1h both cost 0.8 → 420.
	almost(t, s.IntensityAt(23*3600), 420, 1e-9, "off-peak-1 before midnight")
	almost(t, s.IntensityAt(25*3600), 420, 1e-9, "off-peak-1 after midnight (next day)")
}

func TestProfileRoutesClustersToSites(t *testing.T) {
	p := MustProfile(SiteProfile{Site: "dirty", Signal: Constant{G: 500}})
	if err := p.SetCluster("taurus", SiteProfile{Site: "clean", Signal: Constant{G: 50}, PUE: 1.2}); err != nil {
		t.Fatal(err)
	}
	if g := p.IntensityAt("taurus", 0); g != 50 {
		t.Errorf("mapped cluster intensity %v, want 50", g)
	}
	if g := p.IntensityAt("orion", 0); g != 500 {
		t.Errorf("default cluster intensity %v, want 500", g)
	}
	if got := p.Site("taurus").Site; got != "clean" {
		t.Errorf("mapped cluster site %q, want clean", got)
	}
	if got := p.Site("orion").Site; got != "dirty" {
		t.Errorf("default cluster site %q, want dirty", got)
	}
}

func TestProfileValidation(t *testing.T) {
	if _, err := NewProfile(SiteProfile{Site: "x"}); err == nil {
		t.Error("profile without signal must be rejected")
	}
	p := MustProfile(SiteProfile{Site: "d", Signal: Constant{G: 100}})
	if err := p.SetCluster("c", SiteProfile{Site: "bad", Signal: Constant{}, PUE: 0.5}); err == nil {
		t.Error("PUE between 0 and 1 must be rejected")
	}
}

func TestIntegratorExactGrams(t *testing.T) {
	// 1000 W for one hour at a constant 300 g/kWh = 1 kWh × 300 g.
	in, err := NewIntegrator(SiteProfile{Site: "s", Signal: Constant{G: 300}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	in.Advance(3600, 1000)
	almost(t, in.Grams(), 300, 1e-9, "constant-grid grams")

	// PUE multiplies the facility energy behind the same IT draw.
	in2, _ := NewIntegrator(SiteProfile{Site: "s", Signal: Constant{G: 300}, PUE: 1.5}, 0)
	in2.Advance(3600, 1000)
	almost(t, in2.Grams(), 450, 1e-9, "PUE-scaled grams")
}

func TestIntegratorPiecewiseAgainstSteps(t *testing.T) {
	// A power step at 1800 s integrates, interval by interval, to the
	// same grams as the one-shot form over each constant-power piece.
	site := SiteProfile{Site: "s", Signal: Diurnal{MeanG: 300, AmplitudeG: 200, CleanHour: 13}}
	in, err := NewIntegrator(site, 0)
	if err != nil {
		t.Fatal(err)
	}
	in.Advance(1800, 2000)
	in.Advance(3600, 500)
	want := Grams(site, 2000*1800, 0, 1800) + Grams(site, 500*1800, 1800, 3600)
	almost(t, in.Grams(), want, 1e-9, "step-spanning grams")

	defer func() {
		if recover() == nil {
			t.Error("backwards Advance must panic")
		}
	}()
	in.Advance(1000, 1)
}

func TestGramsOneShot(t *testing.T) {
	site := SiteProfile{Site: "s", Signal: Constant{G: 250}}
	almost(t, Grams(site, JoulesPerKWh, 0, 60), 250, 1e-9, "one-shot grams")
}
