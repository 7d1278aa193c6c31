package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// metricDef declares one metric. The catalogs below are the single
// source BENCHMARK.json is generated from (`-manifest`) and checked
// against, so a metric cannot be emitted without being declared or
// declared without being emitted.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// End-to-end metrics: what a user of either substrate pays. Every
// workload reports every one of them (the driver's contract), so the
// list holds only what both the simulator and the live master have:
//
//   - sim workloads: an operation is one simulated task. lat_p50_us is
//     the host time per task of the median repetition, lat_p99_us that
//     of the slowest repetition (sim.Run has no finer observable unit).
//   - live workloads: an operation is one Master.Do in the closed loop.
//
// The open-loop ladder (open_max_rate, open_p50_us, open_p90_us of
// ISSUE 12) applies to two workloads only and failed_share is 0 on
// every healthy run, which the contract excludes; the first are
// reported as loadgen.open_* layer metrics, the second through the
// result's attempted/failed counts.
//
// Bounds: the timing and memory metrics spread 2-10% across ten seeds
// on the 2-vCPU sandbox in a quiet hour and up to 17% in a busy one
// (neighbours' cache and memory traffic, not the program; README.md,
// "Measured baseline"), so they take the contract's widest bound.
// allocs_per_op repeats to within 0.7% and keeps the 2% the issue asked
// for.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "lat_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// Per-layer metrics, from the traced run. A layer a workload bypasses
// reads 0 there. Plain time units (ns, us, ms) mark probes and runtime
// counters that are measured afresh in every traced run of every
// workload; costs observed inside the workload carry a per-operation
// unit (us/op, us/task, us/read).
var perLayer = []metricDef{
	{Name: "workload.gen_us_per_task", Unit: "us/task", Better: "lower"},
	{Name: "sim.run_us_per_task", Unit: "us/task", Better: "lower"},
	{Name: "sim.kernel_self_us_per_task", Unit: "us/task", Better: "lower"},
	{Name: "sim.mean_wait_s", Unit: "sim_s", Better: "lower"},
	{Name: "sim.makespan_s", Unit: "sim_s", Better: "lower"},
	{Name: "sim.preemptions", Unit: "count", Better: "lower"},
	{Name: "sim.deadline_misses", Unit: "count", Better: "lower"},
	{Name: "sim.rejected", Unit: "count", Better: "lower"},
	{Name: "sim.module.carbon.us_per_task", Unit: "us/task", Better: "lower"},
	{Name: "sim.module.budget.us_per_task", Unit: "us/task", Better: "lower"},
	{Name: "sim.module.sla.us_per_task", Unit: "us/task", Better: "lower"},
	{Name: "sim.module.preempt.us_per_task", Unit: "us/task", Better: "lower"},
	{Name: "sim.module.telemetry.us_per_task", Unit: "us/task", Better: "lower"},
	{Name: "sim.module.hook_calls_per_task", Unit: "count", Better: "lower"},
	{Name: "sched.less_calls_per_task", Unit: "count", Better: "lower"},
	{Name: "sched.select_ns", Unit: "ns", Better: "lower"},
	{Name: "simtime.event_ns", Unit: "ns", Better: "lower"},

	{Name: "middleware.master.do_us", Unit: "us/op", Better: "lower"},
	{Name: "middleware.master.self_us", Unit: "us/op", Better: "lower"},
	{Name: "middleware.interceptor.obs.us", Unit: "us/op", Better: "lower"},
	{Name: "middleware.interceptor.sla.us", Unit: "us/op", Better: "lower"},
	{Name: "middleware.interceptor.carbon.us", Unit: "us/op", Better: "lower"},
	{Name: "middleware.interceptor.budget.us", Unit: "us/op", Better: "lower"},
	{Name: "middleware.interceptor.power.us", Unit: "us/op", Better: "lower"},
	{Name: "middleware.agent.estimate_us", Unit: "us/op", Better: "lower"},
	{Name: "middleware.agent.candidates", Unit: "count", Better: "lower"},
	{Name: "middleware.dispatch.solve_us", Unit: "us/op", Better: "lower"},
	{Name: "middleware.sed.estimate_us", Unit: "us/op", Better: "lower"},
	{Name: "middleware.sed.solve_us", Unit: "us/op", Better: "lower"},
	{Name: "middleware.sed.queue_us", Unit: "us/op", Better: "lower"},
	{Name: "middleware.sed.exec_us", Unit: "us/op", Better: "lower"},
	{Name: "middleware.transport.estimate_wire_us", Unit: "us/op", Better: "lower"},
	{Name: "middleware.transport.solve_wire_us", Unit: "us/op", Better: "lower"},
	{Name: "middleware.transport.inflight_max", Unit: "count", Better: "higher"},
	{Name: "estvec.gob_roundtrip_ns", Unit: "ns", Better: "lower"},

	{Name: "journal.appends_per_op", Unit: "count", Better: "lower"},
	{Name: "journal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "journal.rotations", Unit: "count", Better: "lower"},
	{Name: "journal.admit_us", Unit: "us", Better: "lower"},
	{Name: "journal.lease_us", Unit: "us", Better: "lower"},
	{Name: "journal.settle_us", Unit: "us", Better: "lower"},
	{Name: "journal.fsync_us", Unit: "us", Better: "lower"},
	{Name: "journal.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.synced_ops_per_s", Unit: "op/s", Better: "higher"},
	{Name: "journal.synced_p50_us", Unit: "us/op", Better: "lower"},

	{Name: "powerd.reads_per_op", Unit: "count", Better: "lower"},
	{Name: "powerd.client.read_us", Unit: "us/read", Better: "lower"},
	{Name: "powerd.server.model_us", Unit: "us/read", Better: "lower"},
	{Name: "powerd.hop_us", Unit: "us/read", Better: "lower"},
	{Name: "powerd.retries", Unit: "count", Better: "lower"},
	{Name: "powerd.cache_hits", Unit: "count", Better: "lower"},
	{Name: "powerd.fallbacks", Unit: "count", Better: "lower"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MiB", Better: "lower"},

	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.lat_tail_us", Unit: "us/op", Better: "lower"},
	{Name: "loadgen.lat_tail_pct", Unit: "%", Better: "higher"},
	{Name: "loadgen.open_max_rate", Unit: "op/s", Better: "higher"},
	{Name: "loadgen.open_p50_us", Unit: "us/op", Better: "lower"},
	{Name: "loadgen.open_p90_us", Unit: "us/op", Better: "lower"},
	{Name: "loadgen.open_p99_us", Unit: "us/op", Better: "lower"},
	{Name: "loadgen.late_p99_us", Unit: "us/op", Better: "lower"},
	{Name: "loadgen.late_max_us", Unit: "us/op", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
}

// workloadDef declares one workload and the reason it exists.
type workloadDef struct {
	Name string
	Why  string
	Run  func(p params) (*outcome, error)
}

var workloads = []workloadDef{
	{Name: "sim-steady", Run: runSimSteady,
		Why: "400k Poisson tasks just under capacity: queues stay empty, so this is the event kernel's base cost and bypasses the backlog path"},
	{Name: "sim-backlog", Run: runSimBacklog,
		Why: "100k tasks at 60x capacity: per-SED queues run thousands deep, so the re-drain and wait-estimate path does most of the work"},
	{Name: "sim-stack", Run: runSimStack,
		Why: "20k mixed-class tasks under carbon+budget+SLA+preempt+telemetry modules: same kernel, but hooks, EDF queues and preemption dominate"},
	{Name: "live-inproc", Run: runLiveInproc,
		Why: "paper-shaped 3x4 in-process tree, instant solve: pure middleware overhead; transport, journal and powerd do nothing"},
	{Name: "live-tcp", Run: runLiveTCP,
		Why: "one master over two TCP endpoints with a 1 ms solve: exposes the one-in-flight-per-SED lock in Remote.call and the codec cost"},
	{Name: "live-journal", Run: runLiveJournal,
		Why: "in-process SEDs behind the write-ahead log at 8 clients: three appends per request under one mutex; fsync off in the gated run, on for journal.synced_*"},
	{Name: "live-powerd", Run: runLivePowerd,
		Why: "SED power read from a powerd sidecar over a unix socket: the per-reading hop is the cost; only this workload should move when it goes"},
}

// params is one invocation of one workload.
type params struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Tiny shrinks every workload to about a thousand tasks or a
	// fifth of a second — the scale the package's own tests run at.
	Tiny bool
	// OutDir receives span files and scratch state (journals, sockets).
	OutDir string
	// breakBooks drops one completion from the benchmark's own books —
	// the self-test that a books check can fail.
	breakBooks bool
}

// value is one measured number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run produced.
type outcome struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	// Samples is how many latency samples (live) or repetitions (sim)
	// stand behind the percentiles.
	Samples int
	// Notes are human-readable lines: check results, the parts-and-whole
	// accounting, the ladder's rungs.
	Notes []string
	// SpanFile is where a traced run wrote its spans.
	SpanFile string
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect and records why.
func (o *outcome) fail(format string, args ...any) {
	o.Correct = false
	o.note("CHECK FAILED: "+format, args...)
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// seal turns an outcome into the driver's result, enforcing the
// catalog: every declared metric of the mode present and finite,
// nothing undeclared.
func seal(o *outcome, trace bool) (result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{Correct: o.Correct, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := o.Metrics[d.Name]
		if !ok {
			return res, fmt.Errorf("metric %s declared but not emitted", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	for name := range o.Metrics {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("metric %s emitted but not declared", name)
		}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("attempted %d: a run must attempt at least one operation", res.Attempted)
	}
	return res, nil
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is how long one driver run measures.
const runSeconds = 8

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

func manifestJSON() ([]byte, error) {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// zeroLayerMetrics returns every per-layer metric at 0, so a workload
// fills in the layers it touches and the rest read "bypassed".
func zeroLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// Set-up is repeated for its median: at least setupMinReps times, and
// until setupMinTotal has been spent on it, at most setupMaxReps. A
// process's first few repetitions run several times slower than the rest
// (the heap is still growing into fresh pages), so the median needs
// enough repetitions behind it to sit in the steady state.
const (
	setupMinReps  = 9
	setupMaxReps  = 400
	setupMinTotal = 500 * time.Millisecond
)

// moreSetups reports whether set-up should be repeated again.
func moreSetups(done int, begin time.Time, tiny bool) bool {
	if tiny {
		return done < 1
	}
	return done < setupMinReps || (done < setupMaxReps && time.Since(begin) < setupMinTotal)
}
