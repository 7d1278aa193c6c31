package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearModelStates(t *testing.T) {
	m := LinearModel{IdleW: 100, PeakW: 220, BootW: 180, OffW: 5}
	if got := m.Power(Off, 0.5); got != 5 {
		t.Errorf("Off = %v, want 5", got)
	}
	if got := m.Power(Booting, 0.5); got != 180 {
		t.Errorf("Booting = %v, want 180", got)
	}
	if got := m.Power(On, 0); got != 100 {
		t.Errorf("On@0 = %v, want 100", got)
	}
	if got := m.Power(On, 1); got != 220 {
		t.Errorf("On@1 = %v, want 220", got)
	}
	if got := m.Power(On, 0.5); got != 160 {
		t.Errorf("On@0.5 = %v, want 160", got)
	}
}

func TestLinearModelClampsUtilization(t *testing.T) {
	m := LinearModel{IdleW: 100, PeakW: 200}
	if got := m.Power(On, -3); got != 100 {
		t.Errorf("u<0 = %v, want idle", got)
	}
	if got := m.Power(On, 7); got != 200 {
		t.Errorf("u>1 = %v, want peak", got)
	}
}

func TestLinearModelValidate(t *testing.T) {
	cases := []struct {
		m    LinearModel
		ok   bool
		name string
	}{
		{LinearModel{IdleW: 100, PeakW: 200, BootW: 150, OffW: 5}, true, "good"},
		{LinearModel{IdleW: -1, PeakW: 200}, false, "negative idle"},
		{LinearModel{IdleW: 200, PeakW: 100}, false, "peak below idle"},
		{LinearModel{IdleW: 100, PeakW: 200, OffW: 150}, false, "off above idle"},
	}
	for _, c := range cases {
		err := c.m.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestStateString(t *testing.T) {
	if Off.String() != "off" || Booting.String() != "booting" || On.String() != "on" {
		t.Fatal("State strings wrong")
	}
	if State(9).String() != "State(9)" {
		t.Fatal("unknown state string wrong")
	}
}

func TestAccumulatorExactIntegration(t *testing.T) {
	a := NewAccumulator(0)
	a.Advance(10, 100) // 1000 J
	a.Advance(15, 200) // 1000 J
	a.Advance(15, 999) // zero-length interval adds nothing
	if got := a.Total(); got != 2000 {
		t.Fatalf("Total = %v, want 2000", got)
	}
	if a.LastTime() != 15 {
		t.Fatalf("LastTime = %v, want 15", a.LastTime())
	}
}

func TestAccumulatorBackwardsPanics(t *testing.T) {
	a := NewAccumulator(10)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards Advance did not panic")
		}
	}()
	a.Advance(5, 100)
}

func TestAccumulatorZeroBeforeAdvance(t *testing.T) {
	a := NewAccumulator(3)
	if a.LastTime() != 3 || a.Total() != 0 {
		t.Fatal("fresh accumulator not zeroed at its start time")
	}
}

// Property: integrating constant power w over any positive span equals
// w*span within float tolerance, independent of how the span is split.
func TestPropertyAccumulatorSplitInvariance(t *testing.T) {
	f := func(w uint16, cuts []uint8) bool {
		a1 := NewAccumulator(0)
		a1.Advance(100, float64(w))
		a2 := NewAccumulator(0)
		last := 0.0
		for _, c := range cuts {
			p := last + float64(c)/255.0*(100-last)
			a2.Advance(p, float64(w))
			last = p
		}
		a2.Advance(100, float64(w))
		return math.Abs(a1.Total()-a2.Total()) < 1e-6*math.Max(1, a1.Total())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWattmeterSamplesAtPeriod(t *testing.T) {
	m := NewWattmeter(1)
	m.Observe(0, 10, 150)
	// Grid points 0..9 inclusive of 0? First point: ceil(0/1)*1 = 0.
	if len(m.samples) != 10 {
		t.Fatalf("retained %d, want 10", len(m.samples))
	}
	for i, s := range m.samples {
		if s.W != 150 {
			t.Fatalf("sample %d W = %v, want 150", i, s.W)
		}
	}
}

func TestWattmeterSplitObservationsNoDuplicates(t *testing.T) {
	m := NewWattmeter(1)
	m.Observe(0, 3.5, 100)
	m.Observe(3.5, 7, 200)
	if len(m.samples) != 7 {
		t.Fatalf("retained %d, want 7", len(m.samples))
	}
	wantW := []Watts{100, 100, 100, 100, 200, 200, 200}
	for i, s := range m.samples {
		if s.W != wantW[i] {
			t.Fatalf("sample %d = %+v, want W=%v", i, s, wantW[i])
		}
	}
}

func TestWattmeterMeanWindow(t *testing.T) {
	m := NewWattmeter(1)
	m.Observe(0, 5, 100)
	m.Observe(5, 10, 300)
	mean, n := m.MeanWindow(0, 9.5)
	if n != 10 {
		t.Fatalf("n = %d, want 10", n)
	}
	if mean != 200 {
		t.Fatalf("mean = %v, want 200", mean)
	}
	mean, n = m.MeanWindow(5, 9)
	if n != 5 || mean != 300 {
		t.Fatalf("window [5,9]: mean=%v n=%d, want 300, 5", mean, n)
	}
	if _, n := m.MeanWindow(100, 200); n != 0 {
		t.Fatal("empty window should report 0 samples")
	}
	if _, n := m.MeanWindow(9, 5); n != 0 {
		t.Fatal("inverted window should report 0 samples")
	}
}

// TestWattmeterForgetIsExact drives a forgetting meter and a twin that
// never forgets through the same random interleaving of Observe,
// Forget and MeanWindow calls, with and without noise: every window
// that starts at or after the last cut-off reads the same (mean, n),
// bit for bit, and the forgetting meter retains no sample before it.
func TestWattmeterForgetIsExact(t *testing.T) {
	for trial := int64(0); trial < 200; trial++ {
		rng := rand.New(rand.NewSource(trial))
		m, twin := NewWattmeter(trial), NewWattmeter(trial)
		if trial%2 == 1 {
			m.NoiseW, twin.NoiseW = 5, 5
		}
		now, cut := 0.0, 0.0
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(10); {
			case k < 5:
				// Fractional intervals, some shorter than the period.
				next := now + rng.Float64()*rng.Float64()*20
				w := Watts(50 + rng.Intn(200))
				m.Observe(now, next, w)
				twin.Observe(now, next, w)
				now = next
			case k < 7:
				// A cut-off anywhere up to now, never moving back; half
				// of them on the sampling grid.
				c := cut + rng.Float64()*(now-cut)
				if rng.Intn(2) == 0 {
					c = math.Floor(c)
				}
				if c > cut {
					cut = c
				}
				m.Forget(cut)
			default:
				// A third of the windows start right at the cut-off.
				from := cut
				if rng.Intn(3) > 0 {
					from += rng.Float64() * (now - cut + 2)
				}
				to := from + rng.Float64()*(now-from+2)
				gotW, gotN := m.MeanWindow(from, to)
				wantW, wantN := twin.MeanWindow(from, to)
				if math.Float64bits(gotW) != math.Float64bits(wantW) || gotN != wantN {
					t.Fatalf("trial %d op %d: window [%v, %v] after cut %v = (%v, %d), unforgetting meter (%v, %d)",
						trial, op, from, to, cut, gotW, gotN, wantW, wantN)
				}
			}
			if kept := m.samples[m.head:]; len(kept) > 0 && kept[0].T < cut {
				t.Fatalf("trial %d op %d: retains a sample at %v before the cut-off %v", trial, op, kept[0].T, cut)
			}
		}
	}
}

// TestWattmeterForgetReusesArray: a meter that forgets behind itself
// stops growing its backing array once it is twice the retained span.
func TestWattmeterForgetReusesArray(t *testing.T) {
	m := NewWattmeter(1)
	for i := 0; i < 100; i++ {
		m.Observe(float64(i*10), float64(i*10+10), 100)
		m.Forget(float64(i*10 - 20))
	}
	grown := cap(m.samples)
	for i := 100; i < 10_000; i++ {
		m.Observe(float64(i*10), float64(i*10+10), 100)
		m.Forget(float64(i*10 - 20))
	}
	if cap(m.samples) != grown {
		t.Errorf("backing array grew from %d to %d samples for a 30-sample window", grown, cap(m.samples))
	}
	if w, n := m.MeanWindow(99_980, 100_000); n != 20 || w != 100 {
		t.Errorf("latest window = (%v, %d), want (100, 20)", w, n)
	}
}

func TestWattmeterNoiseBounded(t *testing.T) {
	m := NewWattmeter(7)
	m.NoiseW = 10
	m.Observe(0, 500, 100)
	for _, s := range m.samples {
		if s.W < 90 || s.W > 110 {
			t.Fatalf("noisy sample %v outside ±10 of 100", s.W)
		}
	}
	mean, _ := m.MeanWindow(0, 500)
	if math.Abs(mean-100) > 2 {
		t.Fatalf("noise is biased: mean=%v", mean)
	}
}

func TestWattmeterNegativeIntervalPanics(t *testing.T) {
	m := NewWattmeter(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative interval did not panic")
		}
	}()
	m.Observe(5, 1, 100)
}

func TestMovingAvgWindowed(t *testing.T) {
	m := NewMovingAvg(3)
	if _, ok := m.Mean(); ok {
		t.Fatal("empty mean should not be ok")
	}
	for _, v := range []float64{1, 2, 3} {
		m.Add(v)
	}
	if v, _ := m.Mean(); v != 2 {
		t.Fatalf("mean = %v, want 2", v)
	}
	m.Add(10) // evicts 1
	if v, _ := m.Mean(); v != 5 {
		t.Fatalf("mean after eviction = %v, want 5", v)
	}
	if m.N() != 3 {
		t.Fatalf("N = %d, want 3", m.N())
	}
	if m.Count() != 4 {
		t.Fatalf("Count = %d, want 4", m.Count())
	}
}

func TestMovingAvgUnbounded(t *testing.T) {
	m := NewMovingAvg(0)
	for i := 1; i <= 100; i++ {
		m.Add(float64(i))
	}
	if v, _ := m.Mean(); v != 50.5 {
		t.Fatalf("unbounded mean = %v, want 50.5", v)
	}
	if m.N() != 100 {
		t.Fatalf("N = %d, want 100", m.N())
	}
}

func TestMovingAvgNegativeWindowTreatedUnbounded(t *testing.T) {
	m := NewMovingAvg(-5)
	m.Add(2)
	m.Add(4)
	if v, _ := m.Mean(); v != 3 {
		t.Fatalf("mean = %v, want 3", v)
	}
}

// Property: a windowed mean always lies within [min,max] of the values
// currently in the window.
func TestPropertyMovingAvgBounded(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		m := NewMovingAvg(5)
		for _, v := range vals {
			m.Add(float64(v))
		}
		mean, ok := m.Mean()
		if !ok {
			return false
		}
		start := len(vals) - 5
		if start < 0 {
			start = 0
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals[start:] {
			lo = math.Min(lo, float64(v))
			hi = math.Max(hi, float64(v))
		}
		return mean >= lo-1e-9 && mean <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorLearnsPowerAndFlops(t *testing.T) {
	e := NewEstimator(8)
	if e.Known() {
		t.Fatal("fresh estimator should be unknown")
	}
	if _, ok := e.GreenPerf(); ok {
		t.Fatal("GreenPerf should be unavailable before observations")
	}
	// 10 requests: 200 W mean power, 1e9 flops in 2 s => 5e8 flop/s.
	for i := 0; i < 10; i++ {
		e.ObserveRequest(200, 1e9, 2)
	}
	p, ok := e.Power()
	if !ok || p != 200 {
		t.Fatalf("Power = %v,%v want 200,true", p, ok)
	}
	f, ok := e.Flops()
	if !ok || f != 5e8 {
		t.Fatalf("Flops = %v,%v want 5e8,true", f, ok)
	}
	gp, ok := e.GreenPerf()
	if !ok || math.Abs(gp-200/5e8) > 1e-18 {
		t.Fatalf("GreenPerf = %v,%v", gp, ok)
	}
	if e.Requests() != 10 {
		t.Fatalf("Requests = %d, want 10", e.Requests())
	}
}

func TestEstimatorIgnoresDegenerateObservations(t *testing.T) {
	e := NewEstimator(4)
	e.ObserveRequest(100, 1e9, 0) // zero exec time: ignored entirely
	e.ObserveRequest(-5, 1e9, 1)  // negative power: flops only
	e.ObserveRequest(0, 2e9, 1)   // zero power (meter dropout): flops only
	if _, ok := e.Power(); ok {
		t.Fatal("power should still be unknown")
	}
	f, ok := e.Flops()
	if !ok || f != 1.5e9 {
		t.Fatalf("Flops = %v,%v want 1.5e9,true", f, ok)
	}
	if e.Known() {
		t.Fatal("estimator should not be Known without power data")
	}
}

func TestEstimatorRecency(t *testing.T) {
	e := NewEstimator(4)
	for i := 0; i < 10; i++ {
		e.ObserveRequest(100, 1e9, 1)
	}
	// Node drifts hotter: window must forget the old regime.
	for i := 0; i < 4; i++ {
		e.ObserveRequest(300, 1e9, 1)
	}
	p, _ := e.Power()
	if p != 300 {
		t.Fatalf("windowed power = %v, want 300 after drift", p)
	}
}

// BenchmarkWattmeterObserve measures the steady state the simulator
// runs a meter in: one sample per observed second, with everything
// older than a 64-second window forgotten behind it.
func BenchmarkWattmeterObserve(b *testing.B) {
	m := NewWattmeter(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := float64(i)
		m.Observe(t, t+1, 150)
		m.Forget(t - 64)
	}
}

func BenchmarkEstimatorObserve(b *testing.B) {
	e := NewEstimator(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ObserveRequest(200, 1e9, 2)
	}
}
