package sim

import (
	"fmt"
	"io"
	"strconv"

	"greensched/internal/carbon"
	"greensched/internal/power"
)

// TelemetrySample is one per-tick snapshot of the platform: the
// fleet-level series a live deployment would scrape off /metrics,
// sampled on virtual time instead. CO2Rate is grams per second at the
// tick (powered draw weighted by each cluster's intensity), 0 without
// a carbon profile.
type TelemetrySample struct {
	T        float64
	Queued   int
	Unplaced int
	Running  int
	Powered  int
	Watts    float64
	CO2Rate  float64
}

// TelemetryModule samples fleet-level time series at every control
// tick — queue depth, unplaced backlog, running tasks, powered nodes,
// aggregate draw, CO2 rate — and writes them as CSV. It is
// the simulator spelling of pointing a scraper at the live /metrics
// endpoint: a deterministic run yields a byte-identical series, so the
// files diff cleanly across scenario variants. It needs
// Config.ControlEvery > 0 (ticks are the sampling clock).
type TelemetryModule struct {
	BaseModule

	// W receives the series as CSV (required).
	W io.Writer
	// Profile, when set, prices the powered draw into a CO2 rate with
	// each cluster's intensity at the tick.
	Profile *carbon.Profile

	// Samples retains the series in memory after the run (always on —
	// the slice is the analyzer-friendly form of the file).
	Samples []TelemetrySample

	row []byte // OnTick's CSV row, reused across ticks
}

// Init implements Module.
func (m *TelemetryModule) Init(r *Runner) error {
	if m.W == nil {
		return fmt.Errorf("sim: telemetry module needs a writer")
	}
	if _, err := io.WriteString(m.W, "t,queued,unplaced,running,powered,watts,co2_g_per_sec\n"); err != nil {
		return fmt.Errorf("sim: telemetry header: %w", err)
	}
	if r.cfg.ControlEvery <= 0 {
		return fmt.Errorf("sim: telemetry module needs Config.ControlEvery > 0 (ticks are its sampling clock)")
	}
	m.Samples = nil
	return nil
}

// OnTick implements Module: one sample per control tick.
func (m *TelemetryModule) OnTick(now float64, ctl Control) {
	s := TelemetrySample{T: now, Unplaced: ctl.Unplaced()}
	for _, n := range ctl.Nodes() {
		s.Queued += n.Queued
		s.Running += n.Running
		if n.State == power.On {
			s.Powered++
		}
		s.Watts += n.PowerW
		if m.Profile != nil {
			// g/s = W × gCO2/kWh ÷ (3.6e6 J/kWh)
			s.CO2Rate += n.PowerW * m.Profile.IntensityAt(n.Cluster, now) / 3.6e6
		}
	}
	m.Samples = append(m.Samples, s)
	// Shortest-roundtrip float formatting keeps the file deterministic
	// and diffable across runs.
	b := strconv.AppendFloat(m.row[:0], s.T, 'g', -1, 64)
	for _, n := range [...]int{s.Queued, s.Unplaced, s.Running, s.Powered} {
		b = strconv.AppendInt(append(b, ','), int64(n), 10)
	}
	b = strconv.AppendFloat(append(b, ','), s.Watts, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, ','), s.CO2Rate, 'g', -1, 64)
	m.row = append(b, '\n')
	m.W.Write(m.row) //nolint:errcheck // telemetry must not abort the run
}
