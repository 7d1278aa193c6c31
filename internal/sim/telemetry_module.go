package sim

import (
	"fmt"
	"io"
	"strconv"

	"greensched/internal/carbon"
	"greensched/internal/power"
)

// TelemetryModule is the simulator's fleet time series: at every
// control tick it writes one CSV row of queue depth, unplaced backlog,
// running tasks, powered nodes, aggregate draw (W) and CO2 rate (grams
// per second: each node's draw priced at its cluster's intensity; 0
// without a Profile). It is the simulator spelling of pointing a
// scraper at the live /metrics endpoint: a deterministic run yields a
// byte-identical series, so the files diff cleanly across scenario
// variants. It needs Config.ControlEvery > 0 (ticks are the sampling
// clock).
type TelemetryModule struct {
	BaseModule

	// W receives the series as CSV (required).
	W io.Writer
	// Profile, when set, prices the powered draw into a CO2 rate with
	// each cluster's intensity at the tick.
	Profile *carbon.Profile

	row []byte // OnTick's CSV row, reused across ticks
}

// Init implements Module.
func (m *TelemetryModule) Init(r *Runner) error {
	if m.W == nil {
		return fmt.Errorf("sim: telemetry module needs a writer")
	}
	if r.cfg.ControlEvery <= 0 {
		return fmt.Errorf("sim: telemetry module needs Config.ControlEvery > 0 (ticks are its sampling clock)")
	}
	if _, err := io.WriteString(m.W, "t,queued,unplaced,running,powered,watts,co2_g_per_sec\n"); err != nil {
		return fmt.Errorf("sim: telemetry header: %w", err)
	}
	return nil
}

// OnTick implements Module: one row per control tick.
func (m *TelemetryModule) OnTick(now float64, ctl Control) {
	queued, running, powered := 0, 0, 0
	watts, co2Rate := 0.0, 0.0
	for _, n := range ctl.Nodes() {
		queued += n.Queued
		running += n.Running
		if n.State == power.On {
			powered++
		}
		watts += n.PowerW
		if m.Profile != nil {
			// g/s = W × gCO2/kWh ÷ (3.6e6 J/kWh)
			co2Rate += n.PowerW * m.Profile.IntensityAt(n.Cluster, now) / 3.6e6
		}
	}
	// Shortest-roundtrip float formatting keeps the file deterministic
	// and diffable across runs.
	b := strconv.AppendFloat(m.row[:0], now, 'g', -1, 64)
	for _, n := range [...]int{queued, ctl.Unplaced(), running, powered} {
		b = strconv.AppendInt(append(b, ','), int64(n), 10)
	}
	b = strconv.AppendFloat(append(b, ','), watts, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, ','), co2Rate, 'g', -1, 64)
	m.row = append(b, '\n')
	m.W.Write(m.row) //nolint:errcheck // telemetry must not abort the run
}
