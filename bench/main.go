// Command bench is the repository's benchmark of record: seven
// workloads over the simulator and the live master, end-to-end metrics
// from an undecorated run and per-layer metrics from a separate traced
// run whose timing decorators sit around the program's public
// interfaces. Nothing under internal/ or cmd/ knows it exists.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result JSON
//	bench [-runs K] [-trace 0|1] [-out FILE]              every workload (both modes unless one is picked), each run a child process
//	bench -compare A.json [B.json]                        spreads of one set, or B against A with the bounds
//	bench -manifest                                       print BENCHMARK.json from the catalogs
//	bench -update-golden                                  rewrite golden/*.json from seed-1 runs
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// outDir is where span files, set reports and scratch state go,
// relative to the directory the benchmark is started from (the root of
// the checkout). It is ignored by git.
const outDir = "bench/out"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (default: all, each in its own process)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", runSeconds, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from a bare run; 1: per-layer metrics from a traced run")
	runs := fs.Int("runs", 1, "all-workload mode: runs per workload and mode, on seeds seed..seed+runs-1")
	out := fs.String("out", filepath.Join(outDir, "set.json"), "all-workload mode: where the set report goes")
	compare := fs.Bool("compare", false, "compare set reports: one file prints its spreads, two print B against A")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as the metric and workload catalogs define it")
	updateGolden := fs.Bool("update-golden", false, "rewrite bench/golden from seed-1 simulator runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *printManifest:
		b, err := manifestJSON()
		if err != nil {
			return err
		}
		_, err = stdout.Write(b)
		return err
	case *updateGolden:
		return writeGolden(filepath.Join("bench", "golden"))
	case *compare:
		return runCompare(fs.Args(), stdout)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if *workload == "" {
		// Both modes unless -trace picks one.
		modes := []int{0, 1}
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "trace" {
				modes = []int{*trace}
			}
		})
		return runSet(*seed, *seconds, *runs, modes, *out, stdout)
	}
	for _, w := range workloads {
		if w.Name == *workload {
			p := params{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: outDir}
			return runOne(w, p, stdout)
		}
	}
	return fmt.Errorf("unknown workload %q", *workload)
}

// runOne runs one workload in this process and prints the report, the
// result JSON last. An incorrect run still prints its result (correct:
// false) and then fails the process.
func runOne(w workloadDef, p params, stdout io.Writer) error {
	env := readEnvironment(p.OutDir)
	fmt.Fprintf(stdout, "# %s seed %d, %.3g s, trace %v\n", w.Name, p.Seed, p.Seconds, p.Trace)
	for _, line := range env.lines() {
		fmt.Fprintln(stdout, "#", line)
	}
	o, err := w.Run(p)
	if err != nil {
		return err
	}
	res, err := seal(o, p.Trace)
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	for _, n := range o.Notes {
		fmt.Fprintln(stdout, "#", n)
	}
	fmt.Fprintf(stdout, "# %d samples behind the percentiles\n", o.Samples)
	if o.SpanFile != "" {
		fmt.Fprintf(stdout, "# spans written to %s (read them with `greensched spans FILE`)\n", o.SpanFile)
	}
	defs := endToEnd
	if p.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-40s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: correctness checks failed", w.Name)
	}
	return nil
}

// setReport is what the all-workload mode writes: provenance, then every
// run's result.
type setReport struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Started string      `json:"started"`
	Runs    []setRun    `json:"runs"`
}

type setRun struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	WallSec  float64 `json:"wall_s"`
	Result   result  `json:"result"`
}

// runSet runs every workload in the given modes, each run in a fresh child
// process so that peak memory and runtime state belong to it alone. The
// child is waited for before the next starts.
func runSet(seed int64, seconds float64, runs int, modes []int, outPath string, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := setReport{Env: readEnvironment(outDir), Seed: seed, Seconds: seconds, Started: time.Now().UTC().Format(time.RFC3339)}
	for _, line := range rep.Env.lines() {
		fmt.Fprintln(stdout, "#", line)
	}
	var failed []string
	for _, w := range workloads {
		for r := 0; r < runs; r++ {
			for _, trace := range modes {
				s := seed + int64(r)
				cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(s, 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
				var buf bytes.Buffer
				cmd.Stdout, cmd.Stderr = &buf, os.Stderr
				t0 := time.Now()
				runErr := cmd.Run()
				res, perr := lastLineResult(buf.Bytes())
				if perr != nil {
					stdout.Write(buf.Bytes()) //nolint:errcheck // diagnostics on the way out
					return fmt.Errorf("%s seed %d trace %d: %v (process: %v)", w.Name, s, trace, perr, runErr)
				}
				stdout.Write(buf.Bytes()) //nolint:errcheck // the child's report is the set's text output
				if runErr != nil || !res.Correct {
					failed = append(failed, fmt.Sprintf("%s seed %d trace %d", w.Name, s, trace))
				}
				rep.Runs = append(rep.Runs, setRun{Workload: w.Name, Seed: s, Trace: trace == 1,
					WallSec: time.Since(t0).Seconds(), Result: res})
			}
		}
	}
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# set of %d runs written to %s\n", len(rep.Runs), outPath)
	if len(failed) > 0 {
		return fmt.Errorf("correctness checks failed in: %s", strings.Join(failed, "; "))
	}
	return nil
}

// lastLineResult parses the result JSON off the end of a run's output.
func lastLineResult(out []byte) (result, error) {
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) == 0 || len(lines[len(lines)-1]) == 0 {
		return res, errors.New("no output")
	}
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}
