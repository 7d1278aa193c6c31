// Perf trajectory: hot-path benchmarks plus a snapshot emitter.
// BenchmarkSimHotPath times the simulator's per-task scheduling loop
// (the engine under every figure); BenchmarkSimScale10k/100k scale the
// same loop to larger workloads (the regime where quadratic accidents
// would show), with an env-gated BenchmarkSimScale1M for the
// million-task ceiling; BenchmarkLiveMasterThroughput times the fully
// instrumented live serving path — SLA admission, telemetry
// interceptor, election, solve — in requests per second,
// BenchmarkLiveMasterSpansThroughput repeats it with span tracing on
// (so the snapshot prices the tracing overhead explicitly), and
// BenchmarkLiveMasterConcurrent/ConcurrentTCP drive the same path from
// many parallel clients, in-process and across the gob wire.
// BenchmarkLiveMasterJournaled prices the crash-safe dispatch WAL and
// BenchmarkLiveMasterExternalPower prices routing every power reading
// through an out-of-process powerd sidecar.
//
// TestBenchSnapshot (gated behind BENCH_SNAPSHOT=1 so regular `go
// test` stays fast) runs them via testing.Benchmark and writes
// BENCH_10.json: ns/op and allocs/op for the sim paths and req/s for
// the live paths. Re-run with
//
//	BENCH_SNAPSHOT=1 go test -run TestBenchSnapshot -count=1 .
//
// to refresh the committed snapshot after perf-relevant changes. The
// 1M bench is opt-in:
//
//	BENCH_SCALE1M=1 go test -bench BenchmarkSimScale1M -benchtime 1x -run '^$' .
package greensched

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"greensched/internal/cluster"
	"greensched/internal/journal"
	"greensched/internal/middleware"
	"greensched/internal/obs"
	"greensched/internal/power"
	"greensched/internal/powerd"
	"greensched/internal/sched"
	"greensched/internal/sim"
	"greensched/internal/workload"
)

const simHotPathTasks = 256

// BenchmarkSimHotPath drives the simulator's inner loop — arrival,
// estimation-vector election, slot accounting, energy attribution —
// over a fixed workload on the paper platform. ns/op divided by the
// "tasks" metric is the per-task scheduling cost.
func BenchmarkSimHotPath(b *testing.B) {
	platform := cluster.PaperPlatform()
	tasks, err := workload.BurstThenRate{
		Total: simHotPathTasks, Burst: 64, Rate: 4, Ops: 9e11,
	}.Tasks()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Platform: platform,
			Policy:   sched.New(sched.GreenPerf),
			Tasks:    tasks,
			Explore:  true,
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != simHotPathTasks {
			b.Fatalf("completed %d of %d tasks", res.Completed, simHotPathTasks)
		}
	}
	b.ReportMetric(simHotPathTasks, "tasks")
}

const simScaleTasks = 10000

// BenchmarkSimScale10k runs the identical scheduling loop over a
// 10k-task workload. ns/op ÷ tasks against BenchmarkSimHotPath's
// per-task cost is the scaling factor: it should stay near 1 — any
// superlinear growth in the queue, estimator or ledger shows up here
// long before it shows up in a study.
func BenchmarkSimScale10k(b *testing.B) {
	platform := cluster.PaperPlatform()
	tasks, err := workload.BurstThenRate{
		Total: simScaleTasks, Burst: 512, Rate: 16, Ops: 9e11,
	}.Tasks()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Platform: platform,
			Policy:   sched.New(sched.GreenPerf),
			Tasks:    tasks,
			Explore:  true,
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != simScaleTasks {
			b.Fatalf("completed %d of %d tasks", res.Completed, simScaleTasks)
		}
	}
	b.ReportMetric(simScaleTasks, "tasks")
}

// simScale runs one full simulation of n tasks per iteration — the
// body shared by the 100k and 1M scale benches. rate and ops shape the
// arrival pressure: the 1M bench uses shorter tasks at a higher rate
// so the run measures kernel throughput, not the cost of simulating a
// hopelessly saturated cluster.
func simScale(b *testing.B, n int, rate, ops float64) {
	b.Helper()
	platform := cluster.PaperPlatform()
	tasks, err := workload.BurstThenRate{
		Total: n, Burst: 2048, Rate: rate, Ops: ops,
	}.Tasks()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Platform: platform,
			Policy:   sched.New(sched.GreenPerf),
			Tasks:    tasks,
			Explore:  true,
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != n {
			b.Fatalf("completed %d of %d tasks", res.Completed, n)
		}
	}
	b.ReportMetric(float64(n), "tasks")
}

// BenchmarkSimScale100k is the event-heap kernel's headline regime: a
// hundred thousand tasks through arrival cursor, zero-alloc elections
// and cached wait estimates in one simulated run per iteration.
func BenchmarkSimScale100k(b *testing.B) { simScale(b, 100_000, 64, 9e11) }

// BenchmarkSimScale1M is the million-task ceiling. Opt-in
// (BENCH_SCALE1M=1): a single iteration simulates a million arrivals,
// elections and completions, which is too heavy for routine bench
// sweeps but is the scale the event kernel exists for.
func BenchmarkSimScale1M(b *testing.B) {
	if os.Getenv("BENCH_SCALE1M") == "" {
		b.Skip("set BENCH_SCALE1M=1 to run the million-task benchmark")
	}
	simScale(b, 1_000_000, 640, 9e10)
}

// BenchmarkLiveMasterThroughput measures the live serving path with
// the full observability PR in place: an ObsInterceptor counting and
// tracing every request ahead of election, two metered SEDs, and
// instant services — so the number is middleware overhead, not solver
// time. The req/s metric is what BENCH_6.json records.
func BenchmarkLiveMasterThroughput(b *testing.B) {
	sedFor := func(name string, watts float64) *middleware.SED {
		sed, err := middleware.NewSED(middleware.SEDConfig{
			Name:  name,
			Slots: 4,
			Interceptors: []middleware.Interceptor{
				&middleware.MeterInterceptor{Meter: func() (float64, bool) { return watts, true }},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sed.Register(middleware.Service{
			Name:  "compute",
			Solve: func(ctx context.Context, req middleware.Request) ([]byte, error) { return nil, nil },
		}); err != nil {
			b.Fatal(err)
		}
		return sed
	}
	master, err := middleware.NewMaster(
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
		middleware.WithSEDs(sedFor("lean", 60), sedFor("hungry", 400)),
		middleware.WithInterceptors(&middleware.ObsInterceptor{Registry: obs.NewRegistry()}),
	)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Learning phase, exactly like the live study: warmups teach the
	// dynamic estimators each node's speed so the timed elections
	// exercise the real ranking, not the unknown-server fallback.
	for i := 0; i < 8; i++ {
		if _, err := master.Do(ctx, middleware.Request{Service: "compute", Ops: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := master.Do(ctx, middleware.Request{Service: "compute", Ops: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	if res := master.Finalize(); res.Completed != b.N+8 {
		b.Fatalf("ledger counted %d of %d requests", res.Completed, b.N+8)
	}
}

// BenchmarkLiveMasterSpansThroughput is the same serving path with
// span tracing fully on — every request emits its submit, admission,
// elect, dispatch, queue, solve and reply spans into a discarded JSONL
// stream and feeds the stage histograms. The gap to
// BenchmarkLiveMasterThroughput is the all-in cost of tracing a
// request.
func BenchmarkLiveMasterSpansThroughput(b *testing.B) {
	sedFor := func(name string, watts float64) *middleware.SED {
		sed, err := middleware.NewSED(middleware.SEDConfig{
			Name:         name,
			Slots:        4,
			Interceptors: []middleware.Interceptor{&middleware.MeterInterceptor{Meter: func() (float64, bool) { return watts, true }}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sed.Register(middleware.Service{
			Name:  "compute",
			Solve: func(ctx context.Context, req middleware.Request) ([]byte, error) { return nil, nil },
		}); err != nil {
			b.Fatal(err)
		}
		return sed
	}
	master, err := middleware.NewMaster(
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
		middleware.WithSEDs(sedFor("lean", 60), sedFor("hungry", 400)),
		middleware.WithInterceptors(&middleware.ObsInterceptor{Registry: obs.NewRegistry()}),
		middleware.WithSpans(obs.NewSpanWriter(io.Discard)),
	)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := master.Do(ctx, middleware.Request{Service: "compute", Ops: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := master.Do(ctx, middleware.Request{Service: "compute", Ops: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	if res := master.Finalize(); res.Completed != b.N+8 {
		b.Fatalf("ledger counted %d of %d requests", res.Completed, b.N+8)
	}
}

// benchSED builds one instant-service SED for the live benches.
func benchSED(b *testing.B, name string, watts float64) *middleware.SED {
	b.Helper()
	sed, err := middleware.NewSED(middleware.SEDConfig{
		Name:  name,
		Slots: 4,
		Interceptors: []middleware.Interceptor{
			&middleware.MeterInterceptor{Meter: func() (float64, bool) { return watts, true }},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sed.Register(middleware.Service{
		Name:  "compute",
		Solve: func(ctx context.Context, req middleware.Request) ([]byte, error) { return nil, nil },
	}); err != nil {
		b.Fatal(err)
	}
	return sed
}

// BenchmarkLiveMasterJournaled is BenchmarkLiveMasterThroughput with a
// crash-safe dispatch journal mounted: every request appends an
// admission, a lease and a settle record to the WAL, each fsynced
// before the lifecycle proceeds. The gap to the unjournaled number is
// the all-in price of durable dispatch — dominated by fsync latency,
// as it should be.
func BenchmarkLiveMasterJournaled(b *testing.B) {
	jrn, err := journal.Open(filepath.Join(b.TempDir(), "bench.wal"), journal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer jrn.Close()
	master, err := middleware.NewMaster(
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
		middleware.WithSEDs(benchSED(b, "lean", 60), benchSED(b, "hungry", 400)),
		middleware.WithInterceptors(&middleware.ObsInterceptor{Registry: obs.NewRegistry()}),
		middleware.WithJournal(jrn),
	)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := master.Do(ctx, middleware.Request{Service: "compute", Ops: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := master.Do(ctx, middleware.Request{Service: "compute", Ops: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	if res := master.Finalize(); res.Completed != b.N+8 {
		b.Fatalf("ledger counted %d of %d requests", res.Completed, b.N+8)
	}
	if st := jrn.Stats(); st.Pending != 0 {
		b.Fatalf("journal left %d pending lifecycles", st.Pending)
	}
}

// BenchmarkLiveMasterExternalPower is BenchmarkLiveMasterThroughput
// with every power reading routed through an out-of-process powerd
// sidecar on a unix socket instead of an in-process meter: each solve
// window polls the sidecar over the wire (JSON line protocol, one
// exchange per reading). The gap to the unjournaled in-process number
// is the all-in price of out-of-process estimation — dominated by the
// socket round-trip, as it should be.
func BenchmarkLiveMasterExternalPower(b *testing.B) {
	addr := "unix:" + filepath.Join(b.TempDir(), "powerd.sock")
	srv, err := powerd.Serve(addr, power.StaticSource{"lean": 60, "hungry": 400}, powerd.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := powerd.NewClient(powerd.Config{Addr: addr})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	sedFor := func(name string) *middleware.SED {
		sed, err := middleware.NewSED(middleware.SEDConfig{
			Name:  name,
			Slots: 4,
			Interceptors: []middleware.Interceptor{
				&middleware.ExternalPowerInterceptor{Source: cli},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sed.Register(middleware.Service{
			Name:  "compute",
			Solve: func(ctx context.Context, req middleware.Request) ([]byte, error) { return nil, nil },
		}); err != nil {
			b.Fatal(err)
		}
		return sed
	}
	master, err := middleware.NewMaster(
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
		middleware.WithSEDs(sedFor("lean"), sedFor("hungry")),
		middleware.WithInterceptors(&middleware.ObsInterceptor{Registry: obs.NewRegistry()}),
	)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := master.Do(ctx, middleware.Request{Service: "compute", Ops: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := master.Do(ctx, middleware.Request{Service: "compute", Ops: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	if res := master.Finalize(); res.Completed != b.N+8 {
		b.Fatalf("ledger counted %d of %d requests", res.Completed, b.N+8)
	}
	if st := cli.Stats(); st.Fallbacks != 0 || st.BreakerOpen {
		b.Fatalf("bench fell back to local curves, the number is not a sidecar number: %+v", st)
	}
}

// BenchmarkLiveMasterConcurrent is the parallel-client counterpart of
// BenchmarkLiveMasterThroughput: GOMAXPROCS goroutines hammer one
// master's Do concurrently. With the agent snapshot, CAS energy
// accounting and lock-free service lookups this should scale past the
// single-client number, not collapse under a root mutex.
func BenchmarkLiveMasterConcurrent(b *testing.B) {
	master, err := middleware.NewMaster(
		middleware.WithPolicy(sched.New(sched.GreenPerf)),
		middleware.WithSEDs(benchSED(b, "lean", 60), benchSED(b, "hungry", 400)),
		middleware.WithInterceptors(&middleware.ObsInterceptor{Registry: obs.NewRegistry()}),
	)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := master.Do(ctx, middleware.Request{Service: "compute", Ops: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := master.Do(ctx, middleware.Request{Service: "compute", Ops: 1e9}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	if res := master.Finalize(); res.Completed != b.N+8 {
		b.Fatalf("ledger counted %d of %d requests", res.Completed, b.N+8)
	}
}

// BenchmarkLiveMasterConcurrentTCP runs 8 parallel clients, each a
// master with its own gob connections to shared SED endpoints — the
// deployment shape where many submission points feed one serving
// fleet. req/s is the fleet-wide completion rate.
func BenchmarkLiveMasterConcurrentTCP(b *testing.B) {
	const nClients = 8
	sedLean := benchSED(b, "lean", 60)
	sedHungry := benchSED(b, "hungry", 400)
	epLean, err := middleware.Serve("127.0.0.1:0", sedLean, sedLean)
	if err != nil {
		b.Fatal(err)
	}
	defer epLean.Close()
	epHungry, err := middleware.Serve("127.0.0.1:0", sedHungry, sedHungry)
	if err != nil {
		b.Fatal(err)
	}
	defer epHungry.Close()

	masters := make([]*middleware.Master, nClients)
	ctx := context.Background()
	for i := range masters {
		remLean := middleware.Dial("lean", epLean.Addr())
		remHungry := middleware.Dial("hungry", epHungry.Addr())
		defer remLean.Close()
		defer remHungry.Close()
		m, err := middleware.NewMaster(
			middleware.WithPolicy(sched.New(sched.GreenPerf)),
			middleware.WithRemotes(remLean, remHungry),
		)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if _, err := m.Do(ctx, middleware.Request{Service: "compute", Ops: 1e9}); err != nil {
				b.Fatal(err)
			}
		}
		masters[i] = m
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	wg.Add(nClients)
	for i := 0; i < nClients; i++ {
		go func(i int) {
			defer wg.Done()
			n := b.N / nClients
			if i < b.N%nClients {
				n++
			}
			for j := 0; j < n; j++ {
				if _, err := masters[i].Do(ctx, middleware.Request{Service: "compute", Ops: 1e9}); err != nil {
					b.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// benchSnapshotEntry mirrors one benchmark record in BENCH_10.json.
type benchSnapshotEntry struct {
	NsPerOp     int64              `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	N           int                `json:"n"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// benchSnapshot mirrors the committed BENCH_10.json layout.
type benchSnapshot struct {
	Go      string                        `json:"go"`
	Benches map[string]benchSnapshotEntry `json:"benches"`
}

// TestBenchDelta is the CI bench-delta gate (BENCH_DELTA=1): it runs
// BenchmarkSimHotPath live and fails when ns/op or allocs/op regress
// more than 25% against the committed BENCH_10.json. allocs/op is
// deterministic, so that bound catches real regressions exactly;
// ns/op is noisier on shared runners, which is why the tolerance is a
// wide 25% rather than a tight SLO — the gate exists to catch
// accidental quadratic blowups and alloc storms, not 5% drift.
func TestBenchDelta(t *testing.T) {
	if os.Getenv("BENCH_DELTA") == "" {
		t.Skip("set BENCH_DELTA=1 to run the bench-delta gate")
	}
	data, err := os.ReadFile("BENCH_10.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap benchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("parse BENCH_10.json: %v", err)
	}
	base, ok := snap.Benches["BenchmarkSimHotPath"]
	if !ok {
		t.Fatal("BENCH_10.json has no BenchmarkSimHotPath entry")
	}
	const tolerance = 1.25
	r := testing.Benchmark(BenchmarkSimHotPath)
	t.Logf("BenchmarkSimHotPath: live %d ns/op %d allocs/op (n=%d), snapshot %d ns/op %d allocs/op",
		r.NsPerOp(), r.AllocsPerOp(), r.N, base.NsPerOp, base.AllocsPerOp)
	if maxNs := int64(float64(base.NsPerOp) * tolerance); r.NsPerOp() > maxNs {
		t.Errorf("ns/op regressed: %d > %d (snapshot %d + 25%%)", r.NsPerOp(), maxNs, base.NsPerOp)
	}
	if maxAllocs := int64(float64(base.AllocsPerOp) * tolerance); r.AllocsPerOp() > maxAllocs {
		t.Errorf("allocs/op regressed: %d > %d (snapshot %d + 25%%)", r.AllocsPerOp(), maxAllocs, base.AllocsPerOp)
	}
}

// TestBenchSnapshot writes BENCH_10.json — the perf snapshot CI and
// future PRs diff against. Gated so the tier-1 test run stays cheap.
func TestBenchSnapshot(t *testing.T) {
	if os.Getenv("BENCH_SNAPSHOT") == "" {
		t.Skip("set BENCH_SNAPSHOT=1 to regenerate BENCH_10.json")
	}
	snap := benchSnapshot{Go: runtime.Version(), Benches: map[string]benchSnapshotEntry{}}

	for name, fn := range map[string]func(*testing.B){
		"BenchmarkSimHotPath":                BenchmarkSimHotPath,
		"BenchmarkSimScale10k":               BenchmarkSimScale10k,
		"BenchmarkSimScale100k":              BenchmarkSimScale100k,
		"BenchmarkLiveMasterThroughput":      BenchmarkLiveMasterThroughput,
		"BenchmarkLiveMasterSpansThroughput": BenchmarkLiveMasterSpansThroughput,
		"BenchmarkLiveMasterJournaled":       BenchmarkLiveMasterJournaled,
		"BenchmarkLiveMasterExternalPower":   BenchmarkLiveMasterExternalPower,
		"BenchmarkLiveMasterConcurrent":      BenchmarkLiveMasterConcurrent,
		"BenchmarkLiveMasterConcurrentTCP":   BenchmarkLiveMasterConcurrentTCP,
	} {
		r := testing.Benchmark(fn)
		e := benchSnapshotEntry{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), N: r.N}
		if len(r.Extra) > 0 {
			e.Extra = map[string]float64{}
			for k, v := range r.Extra {
				e.Extra[k] = v
			}
		}
		snap.Benches[name] = e
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_10.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_10.json:\n%s", data)
}
