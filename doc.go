// Package greensched reproduces "Energy-Aware Server Provisioning by
// Introducing Middleware-Level Dynamic Green Scheduling"
// (Balouek-Thomert, Caron, Lefèvre — HPPAC/IPDPSW 2015): the GreenPerf
// metric, the provider/user preference model, score-based server
// election, Algorithm 1 candidate selection, and a DIET-style
// middleware with plug-in schedulers, together with the simulation
// substrate and harnesses that regenerate every table and figure of
// the paper's evaluation.
//
// Layout:
//
//	internal/core           the paper's contribution (GreenPerf, Eq. 1-6, Algorithm 1)
//	                        plus the carbon-aware ranking extensions
//	internal/middleware     live DIET-style hierarchy (in-process and TCP)
//	                        with the composable middleware.Interceptor
//	                        stack (NewMaster + functional options): SLA
//	                        admission + revenue ledger, carbon-window
//	                        deferral and budget metering run on the live
//	                        serving path, mirroring sim's module stack.
//	                        The master is concurrent: agent/SED config
//	                        lives behind atomic copy-on-write snapshots
//	                        and WithConcurrency bounds in-flight
//	                        admissions
//	internal/sim            deterministic discrete-event simulator with
//	                        per-node CO2 accounting and the composable
//	                        sim.Module extension stack (NewScenario +
//	                        functional options); carbon accounting, SLA
//	                        machinery, preemption, power controllers and
//	                        budget tracking all mount as stackable
//	                        modules. The run loop is an event-heap kernel
//	                        (time-ordered event queue + arrival cursor,
//	                        preallocated task arenas, zero-alloc election
//	                        inner loop)
//	internal/journal        crash-safety layer under the live path: an
//	                        append-only, checksummed, fsync-controlled
//	                        write-ahead log of request lifecycles
//	                        (admit → lease → settle) with torn-tail
//	                        recovery and compacting segment rotation;
//	                        middleware.WithJournal mounts it and
//	                        Master.Replay folds it back into exactly-once
//	                        books after a crash, redoing expired leases
//	                        on a surviving SED
//	internal/powerd         out-of-process power estimation: a versioned
//	                        JSON line protocol over unix/TCP sockets, a
//	                        reference sidecar (powerd.Serve, `greensched
//	                        powerd`) wrapping any power.Source, a
//	                        trace-replay model, and a fault-tolerant
//	                        client (timeout, retry, last-good cache,
//	                        circuit breaker, loud fallback to the
//	                        analytic curves), mounted on the live path by
//	                        middleware.ExternalPowerInterceptor
//	internal/simtime        the kernel's virtual-time event queue: one
//	                        binary heap of value events, popped in
//	                        (time, class, seq) order; Engine is the
//	                        benchmark probe's callback adapter over it
//	internal/carbon         grid carbon-intensity signals, site profiles
//	                        and the joules→grams integrator
//	internal/sla            SLA classes (deadline, value, penalty curve),
//	                        admission control, the checkpoint/restart
//	                        preemption calculus and the revenue/penalty
//	                        ledger
//	internal/consolidation  related-work baseline (concentration + idle
//	                        shutdown) and the carbon-window controller,
//	                        both guarded by pending deadline slack, able
//	                        to preempt batch for urgent work, and
//	                        mountable as a consolidation.Module
//	internal/obs            fleet telemetry: Prometheus-style metric
//	                        registry + text exposition (no client_golang),
//	                        HTTP serving with pprof and the Go runtime
//	                        collector, the JSONL lifecycle tracer shared
//	                        by middleware (ObsInterceptor, WithMetricsAddr)
//	                        and the simulator
//	                        (sim.TraceModule, sim.TelemetryModule), and
//	                        span-based distributed tracing (Span,
//	                        SpanWriter, AnalyzeSpans) stitched across the
//	                        gob wire and analyzed by `greensched spans`
//	internal/analysis       gains, envelopes and Student-t / Welch statistics
//	                        for the harnesses and multi-seed replication
//	internal/experiments    one harness per table/figure + extension studies;
//	                        a comparison study is variants + columns on one
//	                        runner
//	cmd/greensched          CLI to regenerate the evaluation
//	cmd/greenplan           provisioning-plan (Figure 8 XML) utility
//	examples/               runnable walkthroughs
//
// See README.md for the full package tour. The root package
// intentionally exposes only metadata; the implementation lives in the
// internal packages, and reachability_test.go keeps each of them, and
// each of their top-level declarations, reached from a command, an
// example or the bench module.
package greensched

// Version is the library version.
const Version = "1.0.0"

// Paper identifies the reproduced publication.
const Paper = "Balouek-Thomert, Caron, Lefèvre: Energy-Aware Server Provisioning by " +
	"Introducing Middleware-Level Dynamic Green Scheduling. HPPAC/IPDPSW 2015, " +
	"DOI 10.1109/IPDPSW.2015.121"
