package power

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Sample is a single wattmeter reading at virtual time T (seconds
// since simulation start).
type Sample struct {
	T float64
	W Watts
}

// Wattmeter emulates the Omegawatt energy-sensing boxes of GRID'5000:
// it records the power draw of one node at a fixed period (1 s in the
// paper) and serves windowed queries over the trace.
//
// Faults: NoiseW adds uniform ±NoiseW jitter to every reading; it
// defaults to zero (ideal meter).
type Wattmeter struct {
	Period     float64 // sampling period in seconds; 1.0 matches the paper
	NoiseW     Watts   // uniform measurement noise amplitude
	MaxSamples int     // ring capacity; 0 means unbounded

	rng     *rand.Rand
	samples []Sample
	lastT   float64
	started bool
}

// NewWattmeter returns a 1 Hz ideal meter with the given ring capacity
// (0 = unbounded) and deterministic fault source.
func NewWattmeter(capacity int, seed int64) *Wattmeter {
	return &Wattmeter{Period: 1, MaxSamples: capacity, rng: rand.New(rand.NewSource(seed))}
}

// Observe records the node's (piecewise-constant) draw w over the
// interval [from, to). The meter lays its fixed sampling grid over the
// interval and appends one reading per grid point, with noise when
// set. Simulation code calls Observe on every power-state
// change, mirroring how the external meter sees the node continuously.
func (m *Wattmeter) Observe(from, to float64, w Watts) {
	if m.Period <= 0 {
		m.Period = 1
	}
	if to < from {
		panic(fmt.Sprintf("power: wattmeter observed negative interval [%.3f,%.3f)", from, to))
	}
	if !m.started {
		m.lastT = from
		m.started = true
	}
	// First grid point not yet emitted and inside [from, to).
	start := math.Ceil(m.lastT/m.Period) * m.Period
	if start < from {
		start = math.Ceil(from/m.Period) * m.Period
	}
	for t := start; t < to; t += m.Period {
		m.lastT = t + 1e-9
		v := w
		if m.NoiseW > 0 && m.rng != nil {
			v += (m.rng.Float64()*2 - 1) * m.NoiseW
			if v < 0 {
				v = 0
			}
		}
		m.append(Sample{T: t, W: v})
	}
	if m.lastT < to {
		m.lastT = to
	}
}

func (m *Wattmeter) append(s Sample) {
	m.samples = append(m.samples, s)
	if m.MaxSamples > 0 && len(m.samples) > m.MaxSamples {
		// Drop the oldest half in one copy to amortize.
		keep := m.MaxSamples / 2
		if keep < 1 {
			keep = 1
		}
		copy(m.samples, m.samples[len(m.samples)-keep:])
		m.samples = m.samples[:keep]
	}
}

// MeanWindow returns the average draw over samples with T in
// [from, to], and the number of samples that contributed. This is the
// query the dynamic estimator issues: "energy consumed by this server
// while computing past requests, divided by time".
func (m *Wattmeter) MeanWindow(from, to float64) (Watts, int) {
	if len(m.samples) == 0 || to < from {
		return 0, 0
	}
	lo := sort.Search(len(m.samples), func(i int) bool { return m.samples[i].T >= from })
	sum, n := 0.0, 0
	for i := lo; i < len(m.samples) && m.samples[i].T <= to; i++ {
		sum += m.samples[i].W
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}
