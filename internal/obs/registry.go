package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metric kinds, as rendered by # TYPE.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use; the
// zero value is not usable — construct with NewRegistry.
type Registry struct {
	mu         sync.RWMutex
	families   map[string]*family
	collectors []func()

	// runtimeDone guards RegisterRuntime idempotence: the Go runtime
	// collector must refresh once per scrape no matter how many
	// listeners serve the registry.
	runtimeDone bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnScrape registers a collector: a function run (in registration
// order) at the start of every Render, before samples are read. Use it
// to refresh gauges from an external source of truth (a master's
// ledger, a SED's stats snapshot) so every scrape is consistent with
// the books at scrape time.
func (r *Registry) OnScrape(fn func()) {
	if fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// family is one named metric with a fixed kind and label-name set.
type family struct {
	name   string
	help   string
	kind   string
	labels []string  // label names, in declaration order
	bounds []float64 // histogram bucket upper bounds (sorted, no +Inf)

	mu       sync.Mutex
	children map[string]*child
	ordered  []*child // insertion order; sorted at render time
}

// child is one labelled series of a family.
type child struct {
	values []string // label values, parallel to family.labels

	bits atomic.Uint64 // float64 bits (counter / gauge)

	// histogram state: cumulative handled at render; counts[i] counts
	// observations <= bounds[i], counts[len(bounds)] is +Inf.
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
}

// atomicFloat is an atomic float64 accumulator (CAS add).
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Add(v float64) {
	for {
		old := a.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (a *atomicFloat) Load() float64 { return math.Float64frombits(a.bits.Load()) }

// family returns (or creates) the named family, enforcing that kind
// and label names match any prior registration. Mismatches panic: they
// are programming errors in the instrumented process, not runtime
// conditions.
func (r *Registry) family(name, help, kind string, bounds []float64, labels []string) *family {
	if err := checkName(name); err != nil {
		panic(err)
	}
	for _, l := range labels {
		if err := checkName(l); err != nil {
			panic(err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
		}
		if strings.Join(f.labels, ",") != strings.Join(labels, ",") {
			panic(fmt.Sprintf("obs: metric %s re-registered with labels %v (was %v)", name, labels, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// checkName validates a metric or label name against the Prometheus
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("obs: empty metric/label name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("obs: invalid metric/label name %q", name)
		}
	}
	return nil
}

// with returns (or creates) the child for the given label values.
func (f *family) with(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{values: append([]string(nil), values...)}
	if f.kind == kindHistogram {
		c.counts = make([]atomic.Uint64, len(f.bounds)+1)
	}
	f.children[key] = c
	f.ordered = append(f.ordered, c)
	return c
}

// --- Counter ---------------------------------------------------------

// Counter is a monotone accumulator. The zero Counter is invalid;
// obtain one from Registry.Counter or CounterVec.With.
type Counter struct{ c *child }

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Add adds v; negative deltas are ignored (counters only go up).
func (c Counter) Add(v float64) {
	if v <= 0 {
		return
	}
	for {
		old := c.c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current total.
func (c Counter) Value() float64 { return math.Float64frombits(c.c.bits.Load()) }

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// With returns the child counter for the label values.
func (v *CounterVec) With(values ...string) Counter { return Counter{v.f.with(values)} }

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) Counter {
	return Counter{r.family(name, help, kindCounter, nil, nil).with(nil)}
}

// CounterVec registers (or fetches) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, nil, labels)}
}

// --- Gauge -----------------------------------------------------------

// Gauge is a settable level. The zero Gauge is invalid; obtain one
// from Registry.Gauge or GaugeVec.With.
type Gauge struct{ c *child }

// Set stores v.
func (g Gauge) Set(v float64) { g.c.bits.Store(math.Float64bits(v)) }

// Add adds v (which may be negative).
func (g Gauge) Add(v float64) {
	for {
		old := g.c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g Gauge) Dec() { g.Add(-1) }

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ f *family }

// With returns the child gauge for the label values.
func (v *GaugeVec) With(values ...string) Gauge { return Gauge{v.f.with(values)} }

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) Gauge {
	return Gauge{r.family(name, help, kindGauge, nil, nil).with(nil)}
}

// GaugeVec registers (or fetches) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, nil, labels)}
}

// --- Histogram -------------------------------------------------------

// Histogram is a bucketed distribution with cumulative buckets, sum
// and count, rendered in the standard _bucket/_sum/_count triplet. The
// zero Histogram is invalid; obtain one from HistogramVec.With.
type Histogram struct {
	c      *child
	bounds []float64
}

// Observe records v.
func (h Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.c.counts[i].Add(1)
			break
		}
	}
	h.c.counts[len(h.bounds)].Add(1) // +Inf bucket counts everything
	h.c.sum.Add(v)
	h.c.count.Add(1)
}

// HistogramVec is a labelled histogram family.
type HistogramVec struct{ f *family }

// With returns the child histogram for the label values.
func (v *HistogramVec) With(values ...string) Histogram {
	return Histogram{v.f.with(values), v.f.bounds}
}

// DefBuckets are general-purpose latency buckets in seconds, matching
// the client_golang defaults.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExpBuckets returns n exponential bucket bounds starting at start and
// multiplying by factor — for wide-dynamic-range quantities like
// per-request joules. It panics on invalid parameters.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: invalid exponential buckets (start %v factor %v n %d)", start, factor, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// HistogramVec registers (or fetches) a labelled histogram family with
// the given bucket upper bounds (sorted ascending; +Inf is implicit).
// Nil buckets mean DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, normBuckets(buckets), labels)}
}

// normBuckets defaults, sorts and deduplicates bucket bounds, and
// strips a trailing +Inf (it is implicit).
func normBuckets(buckets []float64) []float64 {
	if buckets == nil {
		buckets = DefBuckets
	}
	out := append([]float64(nil), buckets...)
	sort.Float64s(out)
	dst := out[:0]
	for _, b := range out {
		if math.IsInf(b, 1) {
			continue
		}
		if len(dst) > 0 && dst[len(dst)-1] == b {
			continue
		}
		dst = append(dst, b)
	}
	return dst
}
