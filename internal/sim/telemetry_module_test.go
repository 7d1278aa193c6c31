package sim

import (
	"strings"
	"testing"

	"greensched/internal/carbon"
	"greensched/internal/sched"
)

// TestTelemetryModuleSeries: the per-tick series is present, headered,
// and physically sensible — work shows up in the queued/running/watts
// columns, the CO2 rate prices the draw with the profile's intensity.
func TestTelemetryModuleSeries(t *testing.T) {
	var sb strings.Builder
	tm := &TelemetryModule{
		W:       &sb,
		Profile: carbon.MustProfile(carbon.SiteProfile{Site: "grid", Signal: carbon.Constant{G: 300}}),
	}
	res, err := Run(Config{
		Platform:     smallPlatform(),
		Policy:       sched.New(sched.Power),
		Tasks:        tasks(30, 1e11, 2),
		Seed:         1,
		ControlEvery: 1,
		Modules:      []Module{tm},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 30 {
		t.Fatalf("completed %d, want 30", res.Completed)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if lines[0] != "t,queued,unplaced,running,powered,watts,co2_g_per_sec" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines)-1 != len(tm.Samples) {
		t.Fatalf("%d rows for %d samples", len(lines)-1, len(tm.Samples))
	}
	if len(tm.Samples) == 0 {
		t.Fatal("no samples for a run with ControlEvery set")
	}
	sawWork, sawCO2 := false, false
	for i, s := range tm.Samples {
		if i > 0 && s.T <= tm.Samples[i-1].T {
			t.Fatalf("sample times not increasing: %v after %v", s.T, tm.Samples[i-1].T)
		}
		if s.Running > 0 || s.Queued > 0 {
			sawWork = true
		}
		if s.CO2Rate > 0 {
			sawCO2 = true
			// g/s must equal W·G/3.6e6 within float noise.
			want := s.Watts * 300 / 3.6e6
			if diff := s.CO2Rate - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("co2 rate %v for %v W, want %v", s.CO2Rate, s.Watts, want)
			}
		}
	}
	if !sawWork || !sawCO2 {
		t.Fatalf("degenerate series: sawWork=%v sawCO2=%v", sawWork, sawCO2)
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
