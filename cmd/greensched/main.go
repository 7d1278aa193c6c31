// Command greensched regenerates the paper's evaluation artifacts:
//
//	greensched placement [-seed N] [-static]   Table I/II, Figures 2-5 (§IV-A)
//	greensched greenperf [-seed N]             Figures 6-7, Table III  (§IV-B)
//	greensched adaptive  [-seed N]             Figures 8-9             (§IV-C)
//	greensched replicate [-seeds N]            Table II across seeds, mean ± CI
//	greensched carbon    [-days N]             carbon-blind vs carbon-aware study
//	greensched sla       [-seed N]             deadline/value-aware scheduling study
//	greensched preempt   [-seed N]             express-boot vs checkpoint/restart preemption study
//	greensched scenario  [-seed N] [-spans F]  composed module stack: carbon + SLA + preemption + budget in one run
//	greensched live                            composed LIVE middleware interceptor demo (in-process + TCP)
//	greensched powerd [-listen A] [-trace F]   reference power-estimation sidecar (powerd line protocol)
//	greensched durable [DIR]                   kill/restart drill: journaled master, lease redo, exact books
//	greensched journal FILE                    inspect a dispatch journal: counts, incomplete set, torn tail
//	greensched spans FILE [-check]             per-stage latency + critical path of a span JSONL stream
//	greensched all       [-seed N]             every study above (replicate, replay and live excluded)
//
// Output is written to stdout as ASCII tables/figures.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"greensched/internal/cluster"
	"greensched/internal/experiments"
	"greensched/internal/journal"
	"greensched/internal/obs"
	"greensched/internal/power"
	"greensched/internal/powerd"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == errUsage {
			usage(os.Stderr)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "greensched: %v\n", err)
		os.Exit(1)
	}
}

// errUsage asks main for the usage text and exit code 2.
var errUsage = fmt.Errorf("usage")

// run dispatches one CLI invocation, writing all output to out. Tests
// call it directly with a buffer.
func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return errUsage
	}
	cmd := args[0]
	// A bad flag is reported on the usage writer and comes back as
	// errUsage: parsing must never exit the process run is called in.
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	seed := fs.Int64("seed", 1, "deterministic simulation seed")
	static := fs.Bool("static", false, "use the static (initial benchmark) estimation approach instead of dynamic learning")
	csvDir := fs.String("csv", "", "also export figure data as CSV files into this directory")
	traceFile := fs.String("trace", "", "replay: submission trace file to read; powerd: node,t,watts power CSV to replay")
	seeds := fs.Int("seeds", 10, "replicate: number of independent seeds")
	policyName := fs.String("policy", "GREENPERF", "replay: scheduling policy (RANDOM|POWER|PERFORMANCE|GREENPERF|LEASTLOADED|CARBON|RENEWABLE)")
	days := fs.Int("days", 2, "carbon: scenario length in days")
	burst := fs.Int("burst", 0, "carbon: deferrable tasks per evening burst (0 = default)")
	metricsAddr := fs.String("metrics", "", "live: serve Prometheus-style /metrics (and pprof) on this host:port for the study's fleet telemetry")
	holdSec := fs.Float64("hold", 0, "live: keep the -metrics endpoint up this many seconds after the study finishes; powerd: serve this many seconds then exit (0 = until interrupted)")
	spansFile := fs.String("spans", "", "live/scenario: write per-request span trees to this JSONL file; spans: (unused, pass the file as the argument)")
	check := fs.Bool("check", false, "spans: exit non-zero when any trace fails to parse or misses a canonical stage of the live tree")
	tasks := fs.Int("tasks", 0, "scenario/live: rescale the task mix to roughly this many tasks total (0 = calibrated default)")
	concurrency := fs.Int("concurrency", 0, "live: bound each master's in-flight admissions (0 = unbounded)")
	journalFile := fs.String("journal", "", "live: append each master's crash-safe dispatch journal under this path prefix")
	listenAddr := fs.String("listen", "127.0.0.1:0", "powerd: serve the power protocol on this address (unix:/path or host:port)")
	powerAddr := fs.String("power", "", "live: read per-node power from a powerd sidecar at this address instead of local meters")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	seeded := studyFlags{seed: *seed, static: *static, csvDir: *csvDir, spans: *spansFile,
		days: *days, burst: *burst, tasks: *tasks}
	for _, st := range seededStudies {
		if st.name == cmd {
			return st.run(out, seeded)
		}
	}
	switch cmd {
	case "replicate":
		return runReplicate(out, *seed, *seeds, *static)
	case "live":
		return runLive(out, *metricsAddr, *spansFile, *journalFile, *powerAddr, *holdSec, *tasks, *concurrency)
	case "powerd":
		return runPowerd(out, *listenAddr, *traceFile, *holdSec)
	case "durable":
		dir := ""
		if fs.NArg() > 0 {
			dir = fs.Arg(0)
		}
		return runDurable(out, dir)
	case "journal":
		if fs.NArg() != 1 {
			return fmt.Errorf("journal needs exactly one dispatch-journal file argument (produced by 'live -journal F' or 'durable')")
		}
		return runJournal(out, fs.Arg(0))
	case "spans":
		if fs.NArg() != 1 {
			return fmt.Errorf("spans needs exactly one JSONL file argument (produced by 'live -spans F', 'scenario -spans F' or examples/tracing)")
		}
		return runSpans(out, fs.Arg(0), *check)
	case "replay":
		return runReplay(out, *traceFile, *policyName, *seed)
	case "all":
		// Every seeded study; the scenario runs at its calibrated size
		// and writes no spans.
		seeded.spans, seeded.tasks = "", 0
		for i, st := range seededStudies {
			if i > 0 {
				fmt.Fprintln(out)
			}
			if err := st.run(out, seeded); err != nil {
				return err
			}
		}
		return nil
	case "-h", "--help", "help":
		usage(out)
		return nil
	default:
		return fmt.Errorf("unknown command %q (run 'greensched help' for usage)", cmd)
	}
}

// studyFlags are the parsed flags the seeded studies read.
type studyFlags struct {
	seed               int64
	static             bool
	csvDir, spans      string
	days, burst, tasks int
}

// seededStudies are the deterministic studies, each its own command,
// in the order `all` runs them (replicate, replay and the wall-clock
// drills are left out).
var seededStudies = []struct {
	name string
	run  func(out io.Writer, f studyFlags) error
}{
	{"placement", runPlacement},
	{"greenperf", func(out io.Writer, f studyFlags) error {
		cfg := experiments.DefaultMetricConfig()
		cfg.Seed = f.seed
		return experiments.RenderMetricStudy(cfg, out)
	}},
	{"adaptive", runAdaptive},
	{"extensions", func(out io.Writer, f studyFlags) error { return experiments.RenderExtensions(out, f.seed) }},
	{"consolidation", func(out io.Writer, f studyFlags) error {
		cfg := experiments.DefaultConsolidationConfig()
		cfg.Seed = f.seed
		return rendered(out)(experiments.RunConsolidation(cfg))
	}},
	{"carbon", func(out io.Writer, f studyFlags) error {
		cfg := experiments.DefaultCarbonConfig()
		cfg.Seed = f.seed
		cfg.Days = f.days
		if f.burst > 0 {
			cfg.BurstTasks = f.burst
		}
		return rendered(out)(experiments.RunCarbonStudy(cfg))
	}},
	{"sla", func(out io.Writer, f studyFlags) error {
		cfg := experiments.DefaultSLAConfig()
		cfg.Seed = f.seed
		return rendered(out)(experiments.RunSLAStudy(cfg))
	}},
	{"preempt", func(out io.Writer, f studyFlags) error {
		cfg := experiments.DefaultPreemptionConfig()
		cfg.Seed = f.seed
		return rendered(out)(experiments.RunPreemptionStudy(cfg))
	}},
	{"scenario", runScenario},
}

// rendered writes a study's result to out, or passes on the error that
// stopped the study.
func rendered(out io.Writer) func(interface{ Render(io.Writer) error }, error) error {
	return func(res interface{ Render(io.Writer) error }, err error) error {
		if err != nil {
			return err
		}
		return res.Render(out)
	}
}

func runScenario(out io.Writer, sf studyFlags) error {
	cfg := experiments.DefaultComposedConfig()
	cfg.SLA.Seed = sf.seed
	cfg.ScaleTasks(sf.tasks)
	if sf.spans != "" {
		f, err := os.Create(sf.spans)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.Trace = f
	}
	res, err := experiments.RunComposedStudy(cfg)
	if err != nil {
		return err
	}
	if err := res.Render(out); err != nil {
		return err
	}
	if sf.spans != "" {
		fmt.Fprintf(out, "\nrequest span trees (COMPOSED run) written to %s (analyze with 'greensched spans %s')\n", sf.spans, sf.spans)
	}
	return nil
}

// runSpans analyzes a span JSONL stream (from 'live -spans F',
// 'scenario -spans F' or the tracing example): per-stage latency
// percentiles and the critical-path decomposition of the slowest
// requests. With check, it additionally fails when any trace misses a
// canonical lifecycle stage.
func runSpans(out io.Writer, path string, check bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := obs.ReadSpans(f)
	if err != nil {
		return err
	}
	rep := obs.AnalyzeSpans(spans)
	if err := rep.Render(out); err != nil {
		return err
	}
	if check {
		if err := rep.RequireStages(obs.CanonicalStages...); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nall %d traces carry the full %v lifecycle\n", len(rep.Traces), obs.CanonicalStages)
	}
	return nil
}

// runLive executes the composed LIVE middleware demo. It runs on the
// wall clock (sub-second grid windows, millisecond solves), so it
// takes no seed and is excluded from `all`. With -metrics it serves
// the study's fleet telemetry as a Prometheus-style endpoint (plus
// pprof), and -hold keeps that endpoint up after the study finishes so
// an external scraper can read the final totals; -spans writes
// per-request span trees for `greensched spans`. -tasks rescales the
// request mix (proportionally, each class keeps at least one request)
// and -concurrency bounds each master's in-flight admissions — together
// they turn the demo into a load generator for the concurrent master.
// -journal mounts a crash-safe dispatch journal under each master and
// leaves the .wal files behind for `greensched journal`.
// -power routes every power reading through an external powerd sidecar
// (start one with 'greensched powerd'); if the sidecar dies mid-study
// the stack trips to the built-in analytic curves and keeps electing.
func runLive(out io.Writer, metricsAddr, spansFile, journalFile, powerAddr string, holdSec float64, tasks, concurrency int) error {
	cfg := experiments.DefaultLiveComposedConfig()
	cfg.ScaleTasks(tasks)
	cfg.Concurrency = concurrency
	cfg.JournalPath = journalFile
	cfg.PowerAddr = powerAddr
	var srv *obs.Server
	if metricsAddr != "" {
		cfg.Registry = obs.NewRegistry()
		var err error
		srv, err = obs.ListenAndServe(metricsAddr, cfg.Registry)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "serving /metrics and /debug/pprof on http://%s\n\n", srv.Addr())
	}
	if spansFile != "" {
		f, err := os.Create(spansFile)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.SpanW = f
	}
	res, err := experiments.RunLiveComposedStudy(cfg)
	if err != nil {
		return err
	}
	if err := res.Render(out); err != nil {
		return err
	}
	if spansFile != "" {
		fmt.Fprintf(out, "\nrequest span trees written to %s (analyze with 'greensched spans %s')\n", spansFile, spansFile)
	}
	if journalFile != "" {
		fmt.Fprintf(out, "\ndispatch journals written to %s.{in-process,tcp}.wal (inspect with 'greensched journal FILE')\n", journalFile)
	}
	if srv != nil && holdSec > 0 {
		fmt.Fprintf(out, "\nholding the metrics endpoint for %.0fs (http://%s/metrics)\n", holdSec, srv.Addr())
		time.Sleep(time.Duration(holdSec * float64(time.Second)))
	}
	return nil
}

// runPowerd runs the reference power-estimation sidecar: it answers
// the powerd line protocol (one JSON object per line, protocol v1) on
// -listen until -hold seconds elapse (0 = until interrupted). The
// default model serves the Table I analytic curves evaluated at the
// caller-reported utilization, with a generic lean-server curve for
// nodes outside the catalog; -trace replaces it with a recorded
// "node,t,watts" CSV replayed against the caller's clock. Point a
// scheduler at it with 'greensched live -power ADDR'.
func runPowerd(out io.Writer, listen, traceFile string, holdSec float64) error {
	var src power.Source
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return err
		}
		m, err := powerd.ParseTraceCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "replaying %d traced nodes from %s\n", len(m.Nodes()), traceFile)
		src = m
	} else {
		curves := power.CurveSource{
			Nodes:   make(map[string]power.Model),
			Default: power.LinearModel{IdleW: 100, PeakW: 250, ActivationW: 10, BootW: 125, OffW: 8},
		}
		for _, n := range cluster.PaperPlatform().Nodes {
			curves.Nodes[n.Name] = n.PowerModel()
		}
		src = curves
	}
	srv, err := powerd.Serve(listen, src, powerd.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(out, "powerd: serving power protocol v%d on %s (model %s)\n",
		powerd.ProtocolVersion, srv.Addr(), srv.Model())
	if holdSec > 0 {
		time.Sleep(time.Duration(holdSec * float64(time.Second)))
	} else {
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt)
		defer signal.Stop(stop)
		<-stop
	}
	fmt.Fprintf(out, "powerd: answered %d requests\n", srv.Requests())
	return nil
}

// runDurable runs the kill/restart drill: a journaled master dies
// mid-run with a lease outstanding and a request parked in a carbon
// window, a fresh incarnation replays the journal, and the report
// compares its books against an uninterrupted control run. With a DIR
// argument the .wal files are kept there for `greensched journal`;
// otherwise they go to a temp dir that is removed afterwards.
func runDurable(out io.Writer, dir string) error {
	keep := dir != ""
	if !keep {
		tmp, err := os.MkdirTemp("", "greensched-durable-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfg := experiments.DefaultDurableConfig()
	cfg.Dir = dir
	res, err := experiments.RunDurableStudy(cfg)
	if err != nil {
		return err
	}
	if err := res.Render(out); err != nil {
		return err
	}
	if keep {
		fmt.Fprintf(out, "\ndispatch journals kept under %s (inspect with 'greensched journal FILE')\n", dir)
	}
	return nil
}

// runJournal inspects a dispatch journal file read-only: record counts
// by lifecycle state, the incomplete set a restarting master would
// re-drive, and a torn-tail report. It never mutates the file — a torn
// tail is reported, not truncated (opening the journal for writing is
// what repairs it).
func runJournal(out io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rec, err := journal.Recover(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: %d records over %d lifecycles (%d bytes)\n",
		path, rec.Records, len(rec.Entries), rec.GoodBytes)
	for _, st := range []journal.State{
		journal.StateAdmitted, journal.StateDeferred, journal.StateLeased,
		journal.StateCompleted, journal.StateFailed, journal.StateRejected,
	} {
		if n := rec.Counts[st]; n > 0 {
			fmt.Fprintf(out, "  %-9s %6d records\n", st, n)
		}
	}
	if rec.Orphans > 0 {
		fmt.Fprintf(out, "  orphans   %6d (records whose admission is not in this log)\n", rec.Orphans)
	}

	inc := rec.Incomplete()
	fmt.Fprintf(out, "incomplete: %d of %d lifecycles\n", len(inc), len(rec.Entries))
	for _, e := range inc {
		switch e.State {
		case journal.StateLeased:
			fmt.Fprintf(out, "  #%-6d %-9s %-12s leased to %s until t=%.3f\n",
				e.Admit.ID, e.State, e.Admit.Service, e.SED, e.Expiry)
		default:
			fmt.Fprintf(out, "  #%-6d %-9s %-12s\n", e.Admit.ID, e.State, e.Admit.Service)
		}
	}

	if rec.Truncated {
		fmt.Fprintf(out, "torn tail: %s — good prefix ends at byte %d; a writer reopening this journal truncates there and continues\n",
			rec.Reason, rec.GoodBytes)
	} else {
		fmt.Fprintln(out, "clean tail: the log ends on a frame boundary")
	}
	return nil
}

func runPlacement(out io.Writer, f studyFlags) error {
	cfg := experiments.DefaultPlacementConfig()
	cfg.Seed = f.seed
	cfg.Static = f.static
	csvDir := f.csvDir
	res, err := experiments.RunPlacement(cfg)
	if err != nil {
		return err
	}
	if err := res.Render(out); err != nil {
		return err
	}
	if csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	nodes := make([]string, 0, len(res.Platform.Nodes))
	for _, n := range res.Platform.Nodes {
		nodes = append(nodes, n.Name)
	}
	policy := func(kind sched.Kind) *sim.Result {
		run, _ := res.Run(string(kind))
		return run.Result
	}
	files := map[string]string{
		"fig2_power_tasks.csv":       tasksPerNodeCSV(policy(sched.Power), nodes),
		"fig3_performance_tasks.csv": tasksPerNodeCSV(policy(sched.Performance), nodes),
		"fig4_random_tasks.csv":      tasksPerNodeCSV(policy(sched.Random), nodes),
		"fig5_power_energy.csv":      clusterEnergyCSV(policy(sched.Power), res.Platform.Clusters()),
		"fig5_random_energy.csv":     clusterEnergyCSV(policy(sched.Random), res.Platform.Clusters()),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(csvDir, name), []byte(data), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "\nCSV exports written to %s\n", csvDir)
	return nil
}

func runReplay(out io.Writer, traceFile, policyName string, seed int64) error {
	if traceFile == "" {
		return fmt.Errorf("replay needs -trace FILE")
	}
	f, err := os.Open(traceFile)
	if err != nil {
		return err
	}
	defer f.Close()
	tasks, err := workload.ParseTrace(f)
	if err != nil {
		return err
	}
	kind := sched.Kind(policyName)
	switch kind {
	case sched.Random, sched.Power, sched.Performance, sched.GreenPerf, sched.LeastLoaded, sched.Carbon, sched.Renewable:
	default:
		return fmt.Errorf("unknown policy %q", policyName)
	}
	platform := cluster.PaperPlatform()
	res, err := sim.Run(sim.Config{
		Platform:   platform,
		Policy:     sched.New(kind),
		Tasks:      tasks,
		Explore:    kind != sched.Random,
		Contention: 0.08,
		Seed:       seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replayed %d tasks under %s on the Table I platform\n", res.Completed, res.Policy)
	fmt.Fprintf(out, "makespan: %.0f s   energy: %.0f J   mean wait: %.1f s\n",
		res.Makespan, res.EnergyJ, res.MeanWait())
	for _, cl := range platform.Clusters() {
		fmt.Fprintf(out, "  %-12s %4d tasks  %12.0f J\n", cl, res.PerClusterTasks[cl], res.PerClusterEnergy[cl])
	}
	return nil
}

func runReplicate(out io.Writer, firstSeed int64, seeds int, static bool) error {
	cfg := experiments.DefaultReplicationConfig()
	cfg.FirstSeed = firstSeed
	cfg.Seeds = seeds
	cfg.Base.Static = static
	res, err := experiments.RunReplication(cfg)
	if err != nil {
		return err
	}
	return res.Render(out)
}

// runAdaptive runs the Figure 9 scenario once, renders it, and with
// -csv exports the same samples.
func runAdaptive(out io.Writer, f studyFlags) error {
	cfg := experiments.DefaultAdaptiveConfig()
	cfg.Seed = f.seed
	res, err := experiments.RunAdaptive(cfg)
	if err != nil {
		return err
	}
	if err := experiments.RenderAdaptive(res, out); err != nil {
		return err
	}
	if f.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(f.csvDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(f.csvDir, "fig9_adaptive.csv")
	if err := os.WriteFile(path, []byte(adaptiveCSV(res)), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nCSV export written to %s\n", path)
	return nil
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: greensched <command> [flags]

commands:
  placement   §IV-A workload placement: Table I, Figures 2-5, Table II
  greenperf   §IV-B metric study: Figures 6-7, Table III
  adaptive    §IV-C adaptive provisioning: Figures 8-9
  extensions  preference sweep + tariff-following provisioning
  replicate   Table II across seeds: mean ± CI, Welch tests (-seeds N)
  consolidation  related-work baseline: idle shutdown vs always-on
  carbon      carbon-blind vs carbon-aware scheduling (-days N [-burst N])
  sla         deadline/value-aware scheduling: energy-only vs SLA-aware vs SLA+carbon
  preempt     checkpoint/restart preemption vs express-boot-only for urgent work
  scenario    composed module stack: carbon + SLA + preemption + budget in one run
  live        composed LIVE middleware: SLA + carbon + budget interceptors over
              in-process and TCP transports (wall clock, no seed)
  powerd      reference power-estimation sidecar: serves the powerd line
              protocol on -listen (analytic curves, or -trace CSV replay)
  durable [DIR]  kill/restart drill: a journaled master dies mid-run, the next
              incarnation replays the journal and redoes the orphaned lease —
              books byte-equal to an uninterrupted control run
  journal FILE  inspect a dispatch journal: record counts by state, the
              incomplete set a restart would re-drive, torn-tail report
  spans FILE  analyze a span JSONL stream: per-stage latency percentiles and
              the critical path of the slowest requests ([-check])
  replay      schedule an external trace (-trace FILE [-policy P])
  all         run every study (replicate, replay and live excluded)

flags:
  -seed N     deterministic simulation seed (default 1)
  -seeds N    replicate only: number of independent seeds (default 10)
  -days N     carbon only: scenario length in days (default 2)
  -burst N    carbon only: deferrable tasks per evening burst
  -static     placement / replicate: static estimation ablation
  -csv DIR    also export figure data as CSV files
  -metrics A  live only: serve /metrics and /debug/pprof on host:port A
  -hold N     live: keep the -metrics endpoint up N seconds after the study;
              powerd: serve N seconds then exit (0 = until interrupted)
  -trace F    replay: read the submission trace from F;
              powerd: replay a node,t,watts power CSV instead of curves
  -spans F    live/scenario: write per-request span trees to F as JSONL
  -power A    live only: read per-node power from a powerd sidecar at A,
              falling back to the built-in curves when it is unreachable
  -listen A   powerd only: serve on A — unix:/path or host:port
              (default 127.0.0.1:0)
  -check      spans only: fail when a trace misses a canonical stage of the
              live tree (a simulated trace has no dispatch or reply)
  -tasks N    scenario/live: rescale the task mix to roughly N tasks total
  -concurrency N  live only: bound each master's in-flight admissions
  -journal F  live only: append each master's crash-safe dispatch journal to
              F.{in-process,tcp}.wal (inspect with 'greensched journal')
`)
}
