// Fleet observability end to end: the live composed study runs with
// an obs.Registry and a span writer attached, serves its own
// /metrics endpoint, scrapes itself over HTTP, and asserts that the
// scraped counters agree EXACTLY with the study's finalized ledger —
// the property that makes the telemetry trustworthy:
//
//   - greensched_requests_total{transport=...} == LiveResult.Submitted
//     for each transport, with at least one rejection and one carbon
//     deferral on the books;
//   - greensched_budget_spent_joules == greensched_energy_joules: the
//     budget tracker metered every attributed joule, as seen through
//     two independent metric families;
//   - the span stream from the LIVE fleet and from a simulated run
//     (sim.TraceModule) are one record, obs.Span: both decode with
//     obs.ReadSpans and every successful trace of both carries the
//     submit, admission, elect, queue and solve stages, so
//     `greensched spans` reads either.
//
// The program exits non-zero if any invariant fails, which is how CI
// uses it as an observability smoke test.
package main

import (
	"fmt"
	"net/http"
	"os"
	"strings"

	"greensched/internal/cluster"
	"greensched/internal/experiments"
	"greensched/internal/obs"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/workload"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	// 1. Run the composed live study with telemetry attached and its
	// own metrics listener up.
	cfg := experiments.DefaultLiveComposedConfig()
	cfg.Registry = obs.NewRegistry()
	var liveSpans strings.Builder
	cfg.SpanW = &liveSpans

	srv, err := obs.ListenAndServe("127.0.0.1:0", cfg.Registry)
	if err != nil {
		fail(err)
	}
	defer srv.Close()
	fmt.Printf("metrics endpoint: http://%s/metrics\n", srv.Addr())

	res, err := experiments.RunLiveComposedStudy(cfg)
	if err != nil {
		fail(err)
	}

	// 2. Scrape ourselves over real HTTP, like Prometheus would.
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		fail(err)
	}
	samples, err := obs.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		fail(fmt.Errorf("scrape does not parse: %w", err))
	}

	// 3. Counter/ledger agreement, per transport.
	check := func(ok bool, format string, args ...any) {
		if !ok {
			fail(fmt.Errorf(format, args...))
		}
	}
	for _, transport := range []string{experiments.LiveTransportInProcess, experiments.LiveTransportTCP} {
		run, ok := res.Run(transport)
		check(ok, "no %s run in the result", transport)
		lbl := "transport=" + map[string]string{
			experiments.LiveTransportInProcess: "in-process",
			experiments.LiveTransportTCP:       "tcp",
		}[transport]

		get := func(name string) float64 {
			v, ok := samples.Value(name, lbl)
			check(ok, "scrape missing %s{%s}", name, lbl)
			return v
		}
		r := run.Result
		check(get("greensched_requests_total") == float64(r.Submitted),
			"%s: requests_total %v != submitted %d", transport, get("greensched_requests_total"), r.Submitted)
		check(get("greensched_completions_total") == float64(r.Completed),
			"%s: completions_total %v != completed %d", transport, get("greensched_completions_total"), r.Completed)
		check(get("greensched_rejections_total") == float64(r.Rejected) && r.Rejected >= 1,
			"%s: rejections_total %v / rejected %d, want agreement and >= 1", transport, get("greensched_rejections_total"), r.Rejected)
		check(get("greensched_deferrals_total") == float64(r.Deferred) && r.Deferred >= 1,
			"%s: deferrals_total %v / deferred %d, want agreement and >= 1", transport, get("greensched_deferrals_total"), r.Deferred)
		check(get("greensched_energy_joules") == r.EnergyJ,
			"%s: energy gauge %v != ledger %v", transport, get("greensched_energy_joules"), r.EnergyJ)
		// The budget tracker metered every attributed joule: two
		// independent families, one truth.
		check(get("greensched_budget_spent_joules") == get("greensched_energy_joules"),
			"%s: budget %v != energy %v", transport,
			get("greensched_budget_spent_joules"), get("greensched_energy_joules"))
		check(get("greensched_ledger_earned_dollars") == run.ExpectedEarnedUSD,
			"%s: earned %v != expected %v", transport, get("greensched_ledger_earned_dollars"), run.ExpectedEarnedUSD)
		fmt.Printf("%-11s scrape agrees with the ledger: %d requests, %d rejected, %d deferred, %.1f J, $%.2f\n",
			transport, r.Submitted, r.Rejected, r.Deferred, r.EnergyJ, run.ExpectedEarnedUSD)
	}

	// 4. A simulated run traced through sim.TraceModule writes the SAME
	// record: decode both streams byte for byte and require, in every
	// successful trace of each, the stages the two substrates share.
	var simSpans strings.Builder
	tasks, err := workload.BurstThenRate{Total: 12, Burst: 4, Rate: 2, Ops: 1e11}.Tasks()
	if err != nil {
		fail(err)
	}
	_, err = sim.Run(sim.Config{
		Platform: cluster.PaperPlatform(),
		Policy:   sched.New(sched.GreenPerf),
		Tasks:    tasks,
		Seed:     1,
		Modules:  []sim.Module{&sim.TraceModule{W: &simSpans}},
	})
	if err != nil {
		fail(err)
	}
	decode := func(name, stream string) int {
		spans, err := obs.ReadSpans(strings.NewReader(stream))
		if err != nil {
			fail(fmt.Errorf("%s span stream does not parse: %w", name, err))
		}
		if err := obs.AnalyzeSpans(spans).RequireStages(obs.StageSubmit, obs.StageAdmission, obs.StageElect, obs.StageQueue, obs.StageSolve); err != nil {
			fail(fmt.Errorf("%s span stream: %w", name, err))
		}
		return len(spans)
	}
	nLive, nSim := decode("live", liveSpans.String()), decode("sim", simSpans.String())
	fmt.Printf("trace record parity: %d live spans, %d sim spans, one obs.Span schema\n", nLive, nSim)
	fmt.Println("all observability invariants hold")
}
