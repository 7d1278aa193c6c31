// Distributed tracing end to end: a TCP fleet where the master, the
// transport handles AND the SED daemons all emit spans into one JSONL
// stream, stitched into per-request hop trees purely by the trace
// context the Request carries across the gob wire:
//
//	submit
//	├─ elect ─ estimate ─ encode/decode     (estimation fan-out per level)
//	└─ dispatch                             (the elected SED's round trip)
//	   ├─ queue / solve                     (emitted by the SED itself)
//	   └─ reply                             (wire-return residual)
//
// After the run the program re-reads its own span file, requires every
// request's tree to carry the full canonical lifecycle (the same gate
// `greensched spans -check` applies), and self-scrapes /metrics to
// assert the spans also fed the greensched_stage_seconds histograms.
// It exits non-zero if any invariant fails, which is how CI uses it as
// a tracing smoke test; pipe the file it writes through
// `greensched spans` for percentiles and critical paths.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"

	"greensched/internal/cluster"
	"greensched/internal/middleware"
	"greensched/internal/obs"
	"greensched/internal/sched"
)

func main() {
	out := flag.String("out", "spans.jsonl", "span JSONL file to write")
	flag.Parse()
	if err := run(*out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(out string) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	// ONE writer shared by every component in the process; across real
	// processes each daemon would write its own file and the streams
	// concatenate (stitching is by ID, not by position).
	spans := obs.NewSpanWriter(f)

	// The fleet hands the writer to the SEDs (queue/solve spans), the
	// remotes (dial/encode/decode spans) and the master.
	platform := &cluster.Platform{Nodes: []cluster.NodeSpec{
		{Name: "lean", Cores: 2, FlopsPerCore: 10e6, PeakW: 80},
		{Name: "hungry", Cores: 2, FlopsPerCore: 30e6, PeakW: 320},
	}}
	fleet, err := middleware.NewFleet(middleware.FleetSpec{Platform: platform, TCP: true, Spans: spans})
	if err != nil {
		return err
	}
	m, err := fleet.Deploy(
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
		middleware.WithInterceptors(&middleware.ObsInterceptor{}),
		middleware.WithMetricsAddr("127.0.0.1:0"),
	)
	if err != nil {
		return err
	}
	defer m.Close()
	for i, addr := range m.Addrs {
		fmt.Printf("SED %-6s listening on %s\n", platform.Nodes[i].Name, addr)
	}

	const n = 8
	for i := 0; i < n; i++ {
		resp, err := m.Do(context.Background(), middleware.Request{Service: "compute", Ops: 1e6})
		if err != nil {
			return err
		}
		fmt.Printf("request %d -> %s\n", i, resp.Server)
	}

	// Re-read our own stream and apply the `greensched spans -check`
	// gate: every request's hop tree must be complete.
	in, err := os.Open(out)
	if err != nil {
		return err
	}
	defer in.Close()
	all, err := obs.ReadSpans(in)
	if err != nil {
		return fmt.Errorf("span stream does not parse: %w", err)
	}
	rep := obs.AnalyzeSpans(all)
	if len(rep.Traces) != n {
		return fmt.Errorf("%d traces for %d requests", len(rep.Traces), n)
	}
	if err := rep.RequireStages(obs.CanonicalStages...); err != nil {
		return err
	}
	fmt.Printf("\nall %d hop trees carry the full %v lifecycle\n\n", len(rep.Traces), obs.CanonicalStages)
	if err := rep.Render(os.Stdout); err != nil {
		return err
	}

	// The same spans fed the stage histograms: self-scrape /metrics
	// like Prometheus would and check the submit count books every
	// request, next to the Go runtime collector's process gauges.
	resp, err := http.Get("http://" + m.MetricsAddr() + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		return fmt.Errorf("self-scrape does not parse: %w", err)
	}
	for _, stage := range obs.CanonicalStages {
		v, ok := samples.Value("greensched_stage_seconds_count", "src=master", "stage="+stage)
		if !ok || v != n {
			return fmt.Errorf("greensched_stage_seconds_count{stage=%s} = %v, want %d", stage, v, n)
		}
	}
	if v, ok := samples.Value("greensched_go_goroutines"); !ok || v <= 0 {
		return fmt.Errorf("greensched_go_goroutines = %v, want > 0", v)
	}
	fmt.Printf("\nstage histograms agree: %d observations per lifecycle stage on /metrics\n", n)
	fmt.Printf("spans written to %s (analyze with 'greensched spans -check %s')\n", out, out)
	return nil
}
