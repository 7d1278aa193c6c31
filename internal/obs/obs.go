// Package obs is the fleet telemetry layer: a dependency-free,
// concurrency-safe metric registry rendering the Prometheus text
// exposition format, HTTP serving (metrics + pprof), a small exposition
// parser for self-scraping tests, and the request trace record: Span,
// written as JSONL by the live middleware and the simulator alike and
// read back by AnalyzeSpans.
//
// The paper's pitch is middleware-level green scheduling an operator
// can run; everything the stack computes — ledger dollars, joules,
// grams, deferrals, admission rejects — becomes watchable while it
// happens:
//
//	reg := obs.NewRegistry()
//	reqs := reg.Counter("greensched_requests_total", "Submitted requests.")
//	srv, _ := obs.ListenAndServe("127.0.0.1:9090", reg)
//	defer srv.Close()
//	reqs.Inc()
//
// Any Prometheus-compatible scraper can read the endpoint; nothing in
// this package imports client_golang (or anything outside the standard
// library).
//
// Metric model:
//
//   - Counter: monotone accumulator (requests, completions, failures).
//   - Gauge: settable level (in-flight, parked queue, ledger dollars).
//   - Histogram: bucketed distribution with sum and count
//     (solve latency, energy per request).
//
// Each metric family optionally carries label names; children are
// addressed with With(values...). Registering an existing family with
// the same kind and label names returns the existing one, so several
// producers (two masters, per-transport interceptor mounts) can feed
// one registry, distinguished by label values.
package obs
