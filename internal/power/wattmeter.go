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
// The meter keeps only the trace someone can still read: Forget drops
// every sample before a cut-off, and the forgotten prefix is reused
// for new samples, so a meter whose owner forgets behind its oldest
// open window holds that window's samples and no more, however long
// the run. A meter that is never told to forget keeps its whole trace.
//
// Faults: NoiseW adds uniform ±NoiseW jitter to every reading; it
// defaults to zero (ideal meter).
type Wattmeter struct {
	Period float64 // sampling period in seconds; 1.0 matches the paper
	NoiseW Watts   // uniform measurement noise amplitude

	rng *rand.Rand
	// samples[head:] is the retained trace, in increasing T; the
	// samples before head are forgotten and their slots reused.
	samples []Sample
	head    int
	lastT   float64
	started bool
}

// NewWattmeter returns a 1 Hz ideal meter with a deterministic fault
// source.
func NewWattmeter(seed int64) *Wattmeter {
	return &Wattmeter{Period: 1, rng: rand.New(rand.NewSource(seed))}
}

// Observe records the node's (piecewise-constant) draw w over the
// interval [from, to). The meter lays its fixed sampling grid over the
// interval and appends one reading per grid point, with noise when
// set. Simulation code calls Observe on every power-state
// change, mirroring how the external meter sees the node continuously.
func (m *Wattmeter) Observe(from, to float64, w Watts) { m.sample(from, to, w, true) }

// Skip passes over [from, to) as Observe would, on the same grid points
// and with the same noise draws, but keeps no reading: for a span no
// window will ever query. Later readings are those Observe would have
// made.
func (m *Wattmeter) Skip(from, to float64) { m.sample(from, to, 0, false) }

func (m *Wattmeter) sample(from, to float64, w Watts, keep bool) {
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
		if keep {
			m.append(Sample{T: t, W: v})
		}
	}
	if m.lastT < to {
		m.lastT = to
	}
}

// append adds one sample. Once the backing array is full and its
// forgotten prefix is at least half of it, the retained samples move
// to the front first, so a meter that forgets behind itself stops
// allocating: each move copies at most half an array, once per half an
// array of appends.
func (m *Wattmeter) append(s Sample) {
	if len(m.samples) == cap(m.samples) && m.head > 0 && 2*m.head >= len(m.samples) {
		n := copy(m.samples, m.samples[m.head:])
		m.samples = m.samples[:n]
		m.head = 0
	}
	m.samples = append(m.samples, s)
}

// Forget drops every sample with T before the cut-off. Only a window
// that starts before it reads differently afterwards: a MeanWindow
// whose from is at or after the cut-off sums the same samples in the
// same order as it would have without the call.
func (m *Wattmeter) Forget(before float64) {
	for m.head < len(m.samples) && m.samples[m.head].T < before {
		m.head++
	}
}

// MeanWindow returns the average draw over samples with T in
// [from, to], and the number of samples that contributed; samples
// dropped by Forget do not count. This is the query the dynamic
// estimator issues: "energy consumed by this server while computing
// past requests, divided by time".
func (m *Wattmeter) MeanWindow(from, to float64) (Watts, int) {
	kept := m.samples[m.head:]
	if len(kept) == 0 || to < from {
		return 0, 0
	}
	lo := sort.Search(len(kept), func(i int) bool { return kept[i].T >= from })
	sum, n := 0.0, 0
	for i := lo; i < len(kept) && kept[i].T <= to; i++ {
		sum += kept[i].W
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}
