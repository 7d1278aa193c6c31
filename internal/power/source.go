package power

// Source provides per-node power readings — the plug point through
// which per-node watts can come from somewhere other than the built-in
// analytic curves: an out-of-process estimator sidecar (powerd.Client),
// a recorded trace replayed into the simulator, or a static table. The
// metrics/values pair carries the caller's operating point as parallel
// slices (the wire shape of powerd.PowerRequest); sources read the
// metrics they understand and ignore the rest. ok is false when the
// source has no reading for the node — callers fall back to whatever
// they used before (the moving-average estimator, a static profile).
//
// Implementations must be safe for concurrent use: the live middleware
// polls sources from every execution slot at once.
type Source interface {
	NodePowerW(node string, metrics []string, values []float64) (Watts, bool)
}

// Well-known metric names. Sources ignore metrics they don't
// understand, so callers send what they have and protocol growth stays
// backward-compatible.
const (
	// MetricUtil is the node's utilization in [0, 1] (busy slots over
	// total slots) — what the analytic curves interpolate on.
	MetricUtil = "util"
	// MetricTime is the caller's clock reading in seconds — what
	// trace-backed sources key their deterministic replay on.
	MetricTime = "t"
)

// MetricValue returns the named metric from the paired slices; ok is
// false when absent (or the slices disagree in length at that index).
func MetricValue(metrics []string, values []float64, name string) (float64, bool) {
	for i, m := range metrics {
		if m == name && i < len(values) {
			return values[i], true
		}
	}
	return 0, false
}

// StaticSource is a fixed node→watts table — the simplest Source, used
// as a fallback when the sidecar's model is a constant-draw profile and
// in tests. Nodes absent from the table report no reading.
type StaticSource map[string]Watts

// NodePowerW implements Source.
func (s StaticSource) NodePowerW(node string, _ []string, _ []float64) (Watts, bool) {
	w, ok := s[node]
	return w, ok
}

// CurveSource serves the built-in analytic curves: each node's Model
// evaluated at the caller-reported utilization (MetricUtil, clamped to
// [0, 1]; absent means idle). This is the fallback a powerd.Client
// trips to when the sidecar is unreachable — the same power model the
// in-process estimator path has always used — and doubles as the
// reference sidecar's default model.
type CurveSource struct {
	// Nodes maps node names to their curves; Default serves nodes not
	// in the map (nil Default: no reading for unknown nodes).
	Nodes   map[string]Model
	Default Model
}

// NodePowerW implements Source.
func (c CurveSource) NodePowerW(node string, metrics []string, values []float64) (Watts, bool) {
	m := c.Default
	if cm, ok := c.Nodes[node]; ok {
		m = cm
	}
	if m == nil {
		return 0, false
	}
	u, _ := MetricValue(metrics, values, MetricUtil)
	if u < 0 {
		u = 0
	} else if u > 1 {
		u = 1
	}
	return m.Power(On, u), true
}

// ModelName identifies the curve model in powerd responses.
func (c CurveSource) ModelName() string { return "curve" }

// ReadingSource is an optional Source extension for implementations
// that cache their last good reading per node (powerd.Client): the
// reading plus its age lets callers decide whether a value is fresh
// enough to attribute energy with.
type ReadingSource interface {
	Source
	// LastReading returns the node's most recent successful reading
	// and how many seconds ago it was taken; ok is false before the
	// first success.
	LastReading(node string) (w Watts, ageSec float64, ok bool)
}
