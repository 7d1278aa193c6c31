package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"greensched/internal/budget"
	"greensched/internal/carbon"
	"greensched/internal/cluster"
	"greensched/internal/core"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// simSpec is one simulator workload: how its tasks are generated and
// which module stack (if any) rides on the kernel.
type simSpec struct {
	name string
	// tasks generates the trace for a seed at the given scale.
	tasks func(seed int64, n int) ([]workload.Task, error)
	// full and tiny are the task counts at benchmark and test scale.
	full, tiny int
	// seedless marks a workload none of whose inputs is random.
	seedless bool
	// modules builds a fresh stack for one run (modules hold per-run
	// state); nil for the bare kernel.
	modules func() []namedModule
	tick    float64
}

type namedModule struct {
	name string
	mod  sim.Module
}

// paperOps is the paper's reference task on the calibrated platform
// (≈100 s on one Taurus core); the platform's 104 cores then clear
// about 1.03 tasks a second.
const paperOps = 9e11

var simSteady = simSpec{
	name: "sim-steady", full: 400_000, tiny: 1000,
	tasks: func(seed int64, n int) ([]workload.Task, error) {
		return workload.Poisson{Total: n, Rate: 0.9, Ops: paperOps, Seed: seed}.Tasks()
	},
}

// simBacklog is the BenchmarkSimScale100k workload: a burst, then a
// constant rate 60 times what the platform clears, every task the
// paper's size. Nothing in it is drawn at random — equal sizes are what
// make thousands of finishes coincide, and per-task size jitter doubles
// the per-task cost and measures a different regime — so every seed
// generates the same trace and the same result.
var simBacklog = simSpec{
	name: "sim-backlog", full: 100_000, tiny: 1000, seedless: true,
	tasks: func(_ int64, n int) ([]workload.Task, error) {
		burst := 2048
		if burst > n/2 {
			burst = n / 2
		}
		return workload.BurstThenRate{Total: n, Burst: burst, Rate: 64, Ops: paperOps}.Tasks()
	},
}

var simStack = simSpec{
	name: "sim-stack", full: 20_000, tiny: 1000,
	tick: 120,
	tasks: func(seed int64, n int) ([]workload.Task, error) {
		burst := 512
		if burst > n/2 {
			burst = n / 2
		}
		tasks, err := workload.BurstThenRate{Total: n, Burst: burst, Rate: 4, Ops: paperOps, Class: sla.ClassBatch}.Tasks()
		if err != nil {
			return nil, err
		}
		// One task in five is interactive: a tenth of the work, due two
		// minutes after it arrives.
		rng := rand.New(rand.NewSource(seed))
		for i := range tasks {
			if rng.Float64() < 0.2 {
				tasks[i].Class = sla.ClassInteractive
				tasks[i].Ops = paperOps / 10
				tasks[i].Deadline = tasks[i].Submit + 120
			}
		}
		return tasks, nil
	},
	modules: func() []namedModule {
		profile := carbon.MustProfile(carbon.SiteProfile{
			Site:   "lyon",
			Signal: carbon.Diurnal{MeanG: 300, AmplitudeG: 200, CleanHour: 13, RenewableMin: 0.1, RenewableMax: 0.8},
			PUE:    1.2,
		})
		// A 3.8 kW burn-down: the saturated platform draws a little
		// more, so steering is off while the run ramps up and switches
		// on once cumulative consumption overtakes the pace.
		tracker, err := budget.NewTracker(7.6e7, 2e4)
		if err != nil {
			panic(err) // constants above are valid
		}
		return []namedModule{
			{"carbon", &sim.CarbonModule{Profile: profile}},
			{"budget", &budget.Module{Tracker: tracker, Steer: true, Base: core.PrefNone}},
			{"sla", &sim.SLAModule{
				Config: &sla.Config{
					Admission: &sla.Admission{Margin: 1},
					Order:     sched.NewOrder(sched.EDF), UrgentBypass: true,
				},
				WrapDeadline: true,
			}},
			{"preempt", &sim.PreemptModule{Preemption: &sla.Preemption{RestartPenaltyFrac: 0.1}}},
			{"telemetry", &sim.TelemetryModule{W: io.Discard, Profile: profile}},
		}
	},
}

func runSimSteady(p params) (*outcome, error)  { return runSim(simSteady, p) }
func runSimBacklog(p params) (*outcome, error) { return runSim(simBacklog, p) }
func runSimStack(p params) (*outcome, error)   { return runSim(simStack, p) }

// simRun is one sim.Run with what was measured around it.
type simRun struct {
	res     *sim.Result
	wall    time.Duration
	cpu     time.Duration
	digest  simDigest
	modules []*tracedModule // traced runs only
}

// run executes the spec once. With a recorder, every module and the
// base policy are decorated; the kernel itself is never touched.
func (s simSpec) run(platform *cluster.Platform, tasks []workload.Task, seed int64, rec *recorder) (simRun, error) {
	policy := sched.New(sched.GreenPerf)
	var out simRun
	var runID uint64
	if rec != nil {
		policy = countingPolicy{inner: policy, rec: rec}
	}
	opts := []sim.Option{sim.WithPolicy(policy), sim.WithExplore(), sim.WithSeed(seed)}
	if s.modules != nil {
		var mods []sim.Module
		for _, nm := range s.modules() {
			if rec == nil {
				mods = append(mods, nm.mod)
				continue
			}
			tm := &tracedModule{inner: nm.mod, name: nm.name, rec: rec, run: &runID}
			out.modules = append(out.modules, tm)
			mods = append(mods, tm)
		}
		opts = append(opts, sim.WithModules(mods...), sim.WithTick(s.tick))
	}
	cfg := sim.NewScenario(platform, tasks, opts...)

	runtime.GC() // each repetition starts like a fresh process would
	cpu0 := cpuTime()
	start := time.Now()
	if rec != nil {
		runID = rec.newID()
	}
	res, err := sim.Run(cfg)
	out.wall = time.Since(start)
	out.cpu = cpuTime() - cpu0
	if err != nil {
		return out, fmt.Errorf("%s: %w", s.name, err)
	}
	if rec != nil {
		rec.add(spanRec{id: runID, layer: layerSim, name: "run", start: rec.since(start), dur: int64(out.wall)})
	}
	out.res = res
	out.digest = digestOf(res)
	return out, nil
}

func (s simSpec) scale(tiny bool) int {
	if tiny {
		return s.tiny
	}
	return s.full
}

func runSim(s simSpec, p params) (*outcome, error) {
	n := s.scale(p.Tiny)
	o := &outcome{Correct: true, Metrics: map[string]float64{}}

	// Set-up: platform construction and trace generation, several times.
	var (
		platform *cluster.Platform
		tasks    []workload.Task
		setups   []float64
		genNs    []float64
		err      error
	)
	for begin := time.Now(); moreSetups(len(setups), begin, p.Tiny); {
		// Collect the previous repetition's trace first, so that every
		// repetition after the first builds its own on heap the process
		// already holds. Left to the collector's timing — or handed back
		// to the OS each time — the median flips between "recycled heap"
		// and "first touch", and first touch costs whatever the kernel's
		// memory state makes a page fault cost that minute (17 ms in one
		// set of runs, 22 ms in the next, for 5 ms of generation).
		tasks = nil
		runtime.GC()
		t0 := time.Now()
		platform = cluster.PaperPlatform()
		g0 := time.Now()
		tasks, err = s.tasks(p.Seed, n)
		if err != nil {
			return nil, err
		}
		genNs = append(genNs, float64(time.Since(g0)))
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Warm-up: one small run of the same shape, untimed.
	warm, err := s.tasks(p.Seed, min(n, 2000))
	if err != nil {
		return nil, err
	}
	if _, err := s.run(platform, warm, p.Seed, nil); err != nil {
		return nil, err
	}

	check := func(r simRun) {
		o.Attempted += n
		o.Failed += n - r.res.Completed
		if r.res.Completed+r.res.Rejected != n {
			o.fail("%s: completed %d + rejected %d != %d tasks", s.name, r.res.Completed, r.res.Rejected, n)
		}
	}

	if !p.Trace {
		var mem0, mem1 runtime.MemStats
		runtime.ReadMemStats(&mem0)
		var walls []float64
		var cpu time.Duration
		var first simDigest
		begin := time.Now()
		// At least two repetitions; at benchmark scale, as many as fit.
		for i := 0; i < 2 || (!p.Tiny && time.Since(begin).Seconds() < p.Seconds); i++ {
			r, err := s.run(platform, tasks, p.Seed, nil)
			if err != nil {
				return nil, err
			}
			check(r)
			if i == 0 {
				first = r.digest
			} else if r.digest.Digest != first.Digest {
				o.fail("%s: repetition %d digest %s differs from the first %s", s.name, i, r.digest.Digest, first.Digest)
			}
			walls = append(walls, r.wall.Seconds())
			cpu += r.cpu
		}
		runtime.ReadMemStats(&mem1)
		checkGolden(o, s.name, p, first)
		ops := float64(n * len(walls))
		med := median(walls)
		o.Samples = len(walls)
		o.Metrics["setup_s"] = median(setups)
		o.Metrics["ops_per_s"] = float64(n) / med
		o.Metrics["lat_p50_us"] = med / float64(n) * 1e6
		o.Metrics["lat_p99_us"] = percentile(sortedCopy(walls), 0.99) / float64(n) * 1e6
		o.Metrics["cpu_us_per_op"] = float64(cpu.Microseconds()) / ops
		o.Metrics["allocs_per_op"] = float64(mem1.Mallocs-mem0.Mallocs) / ops
		o.Metrics["peak_rss_mb"] = peakRSSMiB()
		o.note("%s: %d tasks x %d repetitions, median %.3f s (%.2f us/task), digest %s",
			s.name, n, len(walls), med, med/float64(n)*1e6, first.Digest[:12])
		return o, nil
	}

	// Traced mode: one bare repetition (for the tracing overhead and as
	// the digest the decorated run must reproduce), then one decorated.
	bare, err := s.run(platform, tasks, p.Seed, nil)
	if err != nil {
		return nil, err
	}
	check(bare)
	every := uint64(1)
	if s.modules != nil {
		// three hook spans per task on each of the five modules, and ticks
		every = uint64(n*15/(spanCap*3/4)) + 1
	}
	rec := newRecorder(every)
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	traced, err := s.run(platform, tasks, p.Seed, rec)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&mem1)
	check(traced)
	if traced.digest.Digest != bare.digest.Digest {
		o.fail("%s: decorated run digest %s differs from the bare run %s", s.name, traced.digest.Digest, bare.digest.Digest)
	}
	checkGolden(o, s.name, p, bare.digest)
	if _, dropped := rec.recorded(); dropped > 0 {
		o.note("%s: %d spans past the %d-span cap were dropped", s.name, dropped, spanCap)
	}
	o.SpanFile = filepath.Join(p.OutDir, s.name+".spans.jsonl")
	if err := rec.writeJSONL(o.SpanFile); err != nil {
		return nil, err
	}

	fn := float64(n)
	m := zeroLayerMetrics()
	m["workload.gen_us_per_task"] = median(genNs) / 1e3 / fn
	runUs := float64(traced.wall.Microseconds()) / fn
	m["sim.run_us_per_task"] = runUs
	var hooksUs float64
	for _, tm := range traced.modules {
		us := float64(tm.ns) / 1e3 / fn
		m["sim.module."+tm.name+".us_per_task"] = us
		hooksUs += us
	}
	m["sim.kernel_self_us_per_task"] = runUs - hooksUs
	m["sim.mean_wait_s"] = traced.res.MeanWait()
	m["sim.makespan_s"] = traced.res.Makespan
	m["sim.preemptions"] = float64(traced.res.Preemptions)
	m["sim.deadline_misses"] = float64(traced.res.DeadlineMisses)
	m["sim.rejected"] = float64(traced.res.Rejected)
	m["sim.module.hook_calls_per_task"] = float64(rec.hookCalls.Load()) / fn
	m["sched.less_calls_per_task"] = float64(rec.lessCalls.Load()) / fn
	runtimeMetrics(m, &mem0, &mem1)
	m["loadgen.samples"] = 1
	m["loadgen.lat_tail_us"] = runUs
	m["loadgen.lat_tail_pct"] = 50
	m["bench.trace_overhead_share"] = 1 - bare.wall.Seconds()/traced.wall.Seconds()
	if err := runProbes(m, p); err != nil {
		return nil, err
	}
	o.Metrics = m
	o.Samples = 1
	o.note("%s traced: run %.2f us/task = kernel %.2f + module hooks %.2f (bare run %.2f us/task); %s",
		s.name, runUs, runUs-hooksUs, hooksUs, float64(bare.wall.Microseconds())/fn, traceSampling(rec))
	return o, nil
}

func traceSampling(rec *recorder) string {
	spans, _ := rec.recorded()
	return fmt.Sprintf("%d spans kept, 1 in %d operations sampled", len(spans), rec.every)
}

// simDigest pins what a run computed. Digest hashes Summary, which
// stays in the golden file so that a mismatch can be read, not just
// detected.
type simDigest struct {
	Digest  string     `json:"digest"`
	Summary simSummary `json:"summary"`
}

type simSummary struct {
	Policy           string             `json:"policy"`
	Completed        int                `json:"completed"`
	Rejected         int                `json:"rejected"`
	Makespan         float64            `json:"makespan_s"`
	MeanWait         float64            `json:"mean_wait_s"`
	EnergyJ          float64            `json:"energy_j"`
	CO2Grams         float64            `json:"co2_g"`
	PerClusterTasks  map[string]int     `json:"per_cluster_tasks"`
	PerClusterEnergy map[string]float64 `json:"per_cluster_energy_j"`
	Preemptions      int                `json:"preemptions"`
	DeadlineMisses   int                `json:"deadline_misses"`
	EarnedUSD        float64            `json:"earned_usd"`
	PenaltyUSD       float64            `json:"penalty_usd"`
	ForfeitedUSD     float64            `json:"forfeited_usd"`
	OnTime           int                `json:"on_time"`
}

func digestOf(res *sim.Result) simDigest {
	s := simSummary{
		Policy: res.Policy, Completed: res.Completed, Rejected: res.Rejected,
		Makespan: res.Makespan, MeanWait: res.MeanWait(),
		EnergyJ: float64(res.EnergyJ), CO2Grams: res.CO2Grams,
		PerClusterTasks:  res.PerClusterTasks,
		PerClusterEnergy: map[string]float64{},
		Preemptions:      res.Preemptions, DeadlineMisses: res.DeadlineMisses,
	}
	for k, v := range res.PerClusterEnergy {
		s.PerClusterEnergy[k] = float64(v)
	}
	if res.SLA != nil {
		s.EarnedUSD, s.PenaltyUSD, s.ForfeitedUSD, s.OnTime = res.SLA.EarnedUSD, res.SLA.PenaltyUSD, res.SLA.ForfeitedUSD, res.SLA.OnTime
	}
	// encoding/json sorts map keys and prints floats in their shortest
	// exact form, so equal results hash equally and nothing else does.
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	sum := sha256.Sum256(b)
	return simDigest{Digest: hex.EncodeToString(sum[:]), Summary: s}
}

// goldenFile is bench/golden/<workload>.json: the seed-1 digests at
// both scales, cut on one architecture (float contraction differs
// across architectures, so other ones skip the comparison).
type goldenFile struct {
	Arch string    `json:"arch"`
	Seed int64     `json:"seed"`
	Full simDigest `json:"full"`
	Tiny simDigest `json:"tiny"`
}

//go:embed golden/*.json
var goldenFS embed.FS

const goldenSeed = 1

func loadGolden(name string) (goldenFile, error) {
	var g goldenFile
	b, err := goldenFS.ReadFile("golden/" + name + ".json")
	if err != nil {
		return g, err
	}
	return g, json.Unmarshal(b, &g)
}

// checkGolden compares a seed-1 digest with the committed one.
func checkGolden(o *outcome, name string, p params, got simDigest) {
	if p.Seed != goldenSeed {
		return
	}
	g, err := loadGolden(name)
	if err != nil {
		o.fail("%s: golden digest unreadable: %v", name, err)
		return
	}
	if g.Arch != runtime.GOARCH {
		o.note("%s: golden digest cut on %s, not compared on %s", name, g.Arch, runtime.GOARCH)
		return
	}
	want := g.Full
	if p.Tiny {
		want = g.Tiny
	}
	if got.Digest != want.Digest {
		gotJSON, _ := json.Marshal(got.Summary)
		wantJSON, _ := json.Marshal(want.Summary)
		o.fail("%s: seed-%d digest %s differs from golden %s\n  got  %s\n  want %s", name, p.Seed, got.Digest, want.Digest, gotJSON, wantJSON)
	}
}

// writeGolden regenerates the golden files in dir (`-update-golden`).
func writeGolden(dir string) error {
	for _, s := range []simSpec{simSteady, simBacklog, simStack} {
		g := goldenFile{Arch: runtime.GOARCH, Seed: goldenSeed}
		for _, tiny := range []bool{false, true} {
			n := s.scale(tiny)
			tasks, err := s.tasks(goldenSeed, n)
			if err != nil {
				return err
			}
			r, err := s.run(cluster.PaperPlatform(), tasks, goldenSeed, nil)
			if err != nil {
				return err
			}
			if tiny {
				g.Tiny = r.digest
			} else {
				g.Full = r.digest
			}
		}
		b, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, s.name+".json"), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
