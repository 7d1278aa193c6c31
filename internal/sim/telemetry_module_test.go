package sim

import (
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"

	"greensched/internal/carbon"
	"greensched/internal/sched"
)

// TestTelemetryModuleSeries: the per-tick series is present, headered,
// and physically sensible — work shows up in the queued/running/watts
// columns, and the CO2 rate prices the draw with the profile's intensity.
func TestTelemetryModuleSeries(t *testing.T) {
	var sb strings.Builder
	res, err := Run(Config{
		Platform:     smallPlatform(),
		Policy:       sched.New(sched.Power),
		Tasks:        tasks(30, 1e11, 2),
		Seed:         1,
		ControlEvery: 1,
		Modules: []Module{&TelemetryModule{
			W:       &sb,
			Profile: carbon.MustProfile(carbon.SiteProfile{Site: "grid", Signal: carbon.Constant{G: 300}}),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 30 {
		t.Fatalf("completed %d, want 30", res.Completed)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(rows[0], ",") != "t,queued,unplaced,running,powered,watts,co2_g_per_sec" {
		t.Fatalf("header = %q", rows[0])
	}
	if len(rows) < 2 {
		t.Fatal("no samples for a run with ControlEvery set")
	}
	sawWork, prevT := false, 0.0
	for i, row := range rows[1:] {
		var v [7]float64
		for j := range v {
			if v[j], err = strconv.ParseFloat(row[j], 64); err != nil {
				t.Fatalf("row %d: %v", i, err)
			}
		}
		tick, queued, running, watts, co2 := v[0], v[1], v[3], v[5], v[6]
		if i > 0 && tick <= prevT {
			t.Fatalf("sample times not increasing: %v after %v", tick, prevT)
		}
		prevT = tick
		sawWork = sawWork || running > 0 || queued > 0
		// g/s must equal W·G/3.6e6 within float noise.
		if want := watts * 300 / 3.6e6; math.Abs(co2-want) > 1e-9 {
			t.Fatalf("co2 rate %v for %v W, want %v", co2, watts, want)
		}
	}
	if !sawWork {
		t.Fatal("degenerate series: no queued or running work")
	}
}

// TestSeriesSampling: the fleet's sampled draw never leaves the band
// between the sum of the nodes' idle watts and the sum of their peaks.
func TestSeriesSampling(t *testing.T) {
	var sb strings.Builder
	_, err := Run(Config{
		Platform:     smallPlatform(),
		Policy:       sched.New(sched.Power),
		Tasks:        tasks(40, 2e11, 2),
		Explore:      true,
		Seed:         9,
		ControlEvery: 5,
		Modules:      []Module{&TelemetryModule{W: &sb}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("series too short: %d samples", len(rows)-1)
	}
	idle, peak := 0.0, 0.0
	for _, n := range smallPlatform().Nodes {
		idle += n.IdleW
		peak += n.PeakW
	}
	for i, row := range rows[1:] {
		w, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if w < idle-1e-9 || w > peak+1e-9 {
			t.Fatalf("sample %v W outside [%v,%v]", w, idle, peak)
		}
	}
}

// TestTelemetryModuleDeterministic: same seed, byte-identical file.
func TestTelemetryModuleDeterministic(t *testing.T) {
	run := func() string {
		var sb strings.Builder
		_, err := Run(Config{
			Platform:     smallPlatform(),
			Policy:       sched.New(sched.Random),
			Tasks:        tasks(25, 1e11, 2),
			Seed:         7,
			ControlEvery: 0.5,
			Modules:      []Module{&TelemetryModule{W: &sb}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatal("same seed produced different telemetry")
	}
}

// TestTelemetryModuleConfig: a missing writer and a tickless run are
// construction errors.
func TestTelemetryModuleConfig(t *testing.T) {
	var sb strings.Builder
	for name, cfg := range map[string]Config{
		"no writer": {Modules: []Module{&TelemetryModule{}}, ControlEvery: 1},
		"no ticks":  {Modules: []Module{&TelemetryModule{W: &sb}}},
	} {
		cfg.Platform = smallPlatform()
		cfg.Policy = sched.New(sched.Power)
		cfg.Tasks = tasks(1, 1e10, 1)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: misconfigured telemetry module accepted", name)
		}
	}
}

// TestTelemetryModuleRefusedWritesNothing: a run refused for want of
// ticks leaves the caller's writer untouched.
func TestTelemetryModuleRefusedWritesNothing(t *testing.T) {
	var sb strings.Builder
	_, err := Run(Config{
		Platform: smallPlatform(),
		Policy:   sched.New(sched.Power),
		Tasks:    tasks(1, 1e10, 1),
		Modules:  []Module{&TelemetryModule{W: &sb}},
	})
	if err == nil {
		t.Fatal("tickless telemetry run accepted")
	}
	if sb.Len() != 0 {
		t.Fatalf("refused run wrote %q", sb.String())
	}
}
