package power

import (
	"math"
	"testing"
)

// Coverage for the corners the scheduler leans on when readings go
// missing: empty meter windows, out-of-order observation intervals,
// and the estimator's zero-flops GreenPerf path. Plus the Source
// helpers the powerd sidecar plugs through.

func TestWattmeterMeanWindowEmptyMeter(t *testing.T) {
	m := NewWattmeter(1)
	if w, n := m.MeanWindow(0, 100); w != 0 || n != 0 {
		t.Errorf("empty meter MeanWindow = %v, %d; want 0, 0", w, n)
	}
}

func TestWattmeterMeanWindowInverted(t *testing.T) {
	m := NewWattmeter(1)
	m.Observe(0, 5, 100)
	if w, n := m.MeanWindow(4, 2); w != 0 || n != 0 {
		t.Errorf("inverted window (to < from) = %v, %d; want 0, 0", w, n)
	}
	// A window that brackets no grid point is empty, not an error.
	if w, n := m.MeanWindow(1.2, 1.8); w != 0 || n != 0 {
		t.Errorf("between-samples window = %v, %d; want 0, 0", w, n)
	}
}

// TestWattmeterOutOfOrderIntervals: a later Observe whose interval
// starts before the grid's high-water mark must not emit duplicate or
// time-reversed samples — the trace stays strictly increasing.
func TestWattmeterOutOfOrderIntervals(t *testing.T) {
	m := NewWattmeter(1)
	m.Observe(0, 5, 100)
	got := len(m.samples)
	// Entirely within already-covered time: nothing new.
	m.Observe(2, 4, 200)
	if len(m.samples) != got {
		t.Fatalf("fully-covered interval re-emitted samples: %d -> %d", got, len(m.samples))
	}
	// Overlapping the covered prefix: only the uncovered tail samples.
	m.Observe(3, 7, 200)
	last := math.Inf(-1)
	for _, s := range m.samples {
		if s.T <= last {
			t.Fatalf("samples out of order or duplicated at T=%v (prev %v)", s.T, last)
		}
		last = s.T
	}
	if w, n := m.MeanWindow(5, 7); n == 0 || w != 200 {
		t.Errorf("uncovered tail not observed: mean %v over %d samples", w, n)
	}
}

// TestEstimatorGreenPerfZeroFlops: a node that completes requests with
// no measurable work has a defined power mean but an undefined
// W-per-flop ratio — GreenPerf must report unknown, not divide by zero.
func TestEstimatorGreenPerfZeroFlops(t *testing.T) {
	e := NewEstimator(8)
	e.ObserveRequest(200, 0, 2)
	e.ObserveRequest(210, 0, 1)
	if p, ok := e.Power(); !ok || p != 205 {
		t.Fatalf("Power = %v, %v; want 205, true", p, ok)
	}
	if f, ok := e.Flops(); !ok || f != 0 {
		t.Fatalf("Flops = %v, %v; want 0, true", f, ok)
	}
	if r, ok := e.GreenPerf(); ok || r != 0 {
		t.Fatalf("GreenPerf with zero flops = %v, %v; want 0, false", r, ok)
	}
	// One real observation flips it to known.
	e.ObserveRequest(200, 1e9, 1)
	if _, ok := e.GreenPerf(); !ok {
		t.Fatal("GreenPerf still unknown after a non-zero-flops request")
	}
}

func TestMetricValue(t *testing.T) {
	metrics, values := []string{MetricUtil, MetricTime}, []float64{0.5, 42}
	if v, ok := MetricValue(metrics, values, MetricTime); !ok || v != 42 {
		t.Errorf("MetricValue(t) = %v, %v", v, ok)
	}
	if _, ok := MetricValue(metrics, values, "ghost"); ok {
		t.Error("unknown metric found")
	}
	// A name whose value slot is missing reports absent, not zero.
	if _, ok := MetricValue([]string{MetricUtil}, nil, MetricUtil); ok {
		t.Error("metric with no paired value reported present")
	}
	if _, ok := MetricValue(nil, nil, MetricUtil); ok {
		t.Error("empty slices reported a metric")
	}
}

func TestStaticSource(t *testing.T) {
	s := StaticSource{"lean": 80}
	if w, ok := s.NodePowerW("lean", nil, nil); !ok || w != 80 {
		t.Errorf("lean = %v, %v", w, ok)
	}
	if _, ok := s.NodePowerW("ghost", nil, nil); ok {
		t.Error("absent node reported a reading")
	}
}

func TestCurveSource(t *testing.T) {
	c := CurveSource{
		Nodes:   map[string]Model{"hungry": LinearModel{IdleW: 150, PeakW: 350}},
		Default: LinearModel{IdleW: 100, PeakW: 300},
	}
	for _, tc := range []struct {
		node string
		util float64
		want Watts
	}{
		{"other", 0, 100},    // default curve, idle
		{"other", 1, 300},    // default curve, flat out
		{"other", -3, 100},   // utilization clamped low
		{"other", 9, 300},    // utilization clamped high
		{"hungry", 0.5, 250}, // per-node curve wins
	} {
		w, ok := c.NodePowerW(tc.node, []string{MetricUtil}, []float64{tc.util})
		if !ok || w != tc.want {
			t.Errorf("%s@%v = %v, %v; want %v", tc.node, tc.util, w, ok, tc.want)
		}
	}
	// No util metric means idle.
	if w, _ := c.NodePowerW("other", nil, nil); w != 100 {
		t.Errorf("metric-less reading = %v, want idle 100", w)
	}
	// Nil Default: unknown nodes have no reading.
	bare := CurveSource{Nodes: map[string]Model{"a": LinearModel{IdleW: 1, PeakW: 2}}}
	if _, ok := bare.NodePowerW("b", nil, nil); ok {
		t.Error("nil-default curve served an unknown node")
	}
	if c.ModelName() != "curve" {
		t.Errorf("ModelName = %q", c.ModelName())
	}
}
