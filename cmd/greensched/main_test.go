package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"greensched/internal/cluster"
	"greensched/internal/experiments"
	"greensched/internal/journal"
	"greensched/internal/obs"
	"greensched/internal/power"
	"greensched/internal/powerd"
)

// TestCarbonCommandSmoke runs the carbon study end-to-end through the
// CLI dispatch on a tiny scenario and checks it produces the report.
func TestCarbonCommandSmoke(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"carbon", "-days", "1", "-burst", "24", "-seed", "7"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"CARBON+WINDOWS", "GREENPERF+IDLE", "CO2 saving", "per-site CO2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestReplaySmoke drives the replay command with a generated trace
// file, including the CARBON policy gate.
func TestReplaySmoke(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	traceData := "# submit_seconds,ops\n0,4.5e11\n1,4.5e11\n2,4.5e11,0.5\n"
	if err := os.WriteFile(path, []byte(traceData), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"replay", "-trace", path, "-policy", "CARBON"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "replayed 3 tasks under CARBON") {
		t.Errorf("unexpected replay output:\n%s", b.String())
	}
}

// TestReplaySLATrace replays a trace carrying the SLA columns under
// the RENEWABLE policy — both PR additions through one CLI pass.
func TestReplaySLATrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	traceData := "# submit,ops,pref,deadline,value,class\n" +
		"0,4.5e11,0,600,0.5,deadline\n1,4.5e11\n2,4.5e11,0,0,2,interactive\n"
	if err := os.WriteFile(path, []byte(traceData), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"replay", "-trace", path, "-policy", "RENEWABLE"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "replayed 3 tasks under RENEWABLE") {
		t.Errorf("unexpected replay output:\n%s", b.String())
	}
}

// TestSLACommandSmoke runs the SLA study end-to-end through the CLI
// dispatch and checks the headline report renders.
func TestSLACommandSmoke(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"sla", "-seed", "3"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"ENERGY-ONLY", "SLA-AWARE", "SLA+CARBON", "Per-class ledger"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestPreemptCommandSmoke runs the preemption study end-to-end through
// the CLI dispatch and checks the headline report renders.
func TestPreemptCommandSmoke(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"preempt", "-seed", "1"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"EXPRESS-BOOT", "PREEMPTION", "Victim misses", "recovers"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestScenarioCommandSmoke runs the composed module-stack study
// end-to-end through the CLI dispatch and checks the headline report
// renders.
func TestScenarioCommandSmoke(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"scenario", "-seed", "1"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"CARBON-BLIND", "COMPOSED", "Victim misses", "Budget", "metered"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLiveCommandSmoke(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"live"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"IN-PROCESS", "TCP", "Deferred", "Earned", "LIVE serving path"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestLiveCommandObservability runs the live study with the fleet
// telemetry flags: the /metrics endpoint must serve parseable
// exposition text while the study runs, and -spans must leave a span
// stream that tells each request's story on both transports: who it
// was, where it ran, what it cost, why it was refused, how long it
// was parked.
func TestLiveCommandObservability(t *testing.T) {
	dir := t.TempDir()
	spansPath := filepath.Join(dir, "live.jsonl")
	var b strings.Builder
	if err := run([]string{"live", "-metrics", "127.0.0.1:0", "-spans", spansPath}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"serving /metrics", "request span trees written"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	f, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := obs.ReadSpans(f)
	if err != nil {
		t.Fatalf("span stream does not parse: %v", err)
	}
	roots := map[string]int{}
	rejected, priced, parked, elected := false, false, false, false
	for _, sp := range spans {
		switch sp.Name {
		case obs.StageSubmit:
			if sp.Parent != 0 || sp.Attrs["id"] == "" {
				t.Fatalf("root without identity: %+v", sp)
			}
			roots[sp.Src]++
			rejected = rejected || strings.Contains(sp.Err, "rejected")
			priced = priced || (sp.Err == "" && sp.Attrs["energy_j"] != "")
		case obs.StageAdmission:
			parked = parked || sp.DurSec >= experiments.DefaultLiveComposedConfig().PollSec
		case obs.StageElect:
			elected = elected || sp.Attrs["server"] != ""
		}
	}
	for _, src := range []string{"live-IN-PROCESS", "live-TCP"} {
		if roots[src] == 0 {
			t.Errorf("no request roots from %s (got %v)", src, roots)
		}
	}
	if !rejected || !priced || !parked || !elected {
		t.Errorf("span stream lost lifecycle facts: rejected=%v priced=%v parked=%v elected=%v",
			rejected, priced, parked, elected)
	}
}

// TestLiveCommandSpans runs the live study with -spans and feeds the
// resulting stream back through the spans analyzer subcommand with the
// completeness gate on — the whole tracing loop through one CLI.
func TestLiveCommandSpans(t *testing.T) {
	dir := t.TempDir()
	spansPath := filepath.Join(dir, "spans.jsonl")
	var b strings.Builder
	if err := run([]string{"live", "-spans", spansPath}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "request span trees written") {
		t.Errorf("live output does not mention the span file:\n%s", b.String())
	}
	b.Reset()
	if err := run([]string{"spans", "-check", spansPath}, &b); err != nil {
		t.Fatalf("spans -check rejected the live stream: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{"Per-stage latency", "Critical path", "full [submit elect dispatch queue solve reply] lifecycle"} {
		if !strings.Contains(out, want) {
			t.Errorf("spans output missing %q:\n%s", want, out)
		}
	}
}

// TestSpansCommand pins the analyzer subcommand's contract on a small
// hand-written stream: the report renders, the completeness gate fails
// a truncated successful trace, and bad invocations error.
func TestSpansCommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spans.jsonl")
	stream := `{"trace":1,"span":1,"name":"submit","src":"m","dur_sec":0.01}
{"trace":1,"span":2,"parent":1,"name":"elect","src":"m","dur_sec":0.002}
`
	if err := os.WriteFile(path, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"spans", path}, &b); err != nil {
		t.Fatalf("plain analysis failed: %v", err)
	}
	for _, want := range []string{"Per-stage latency", "submit", "critical="} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("spans output missing %q:\n%s", want, b.String())
		}
	}
	// The same stream fails -check: the trace succeeded but never
	// dispatched.
	b.Reset()
	err := run([]string{"spans", "-check", path}, &b)
	if err == nil || !strings.Contains(err.Error(), "missing stage") {
		t.Errorf("incomplete trace passed -check: %v", err)
	}

	if err := run([]string{"spans"}, &b); err == nil {
		t.Error("spans without a file must fail")
	}
	if err := run([]string{"spans", filepath.Join(dir, "nope.jsonl")}, &b); err == nil {
		t.Error("spans on a missing file must fail")
	}
	garbled := filepath.Join(dir, "garbled.jsonl")
	if err := os.WriteFile(garbled, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"spans", garbled}, &b); err == nil {
		t.Error("unparseable stream accepted")
	}
}

// TestScenarioCommandTasks pins the -tasks flag through the dispatch:
// the composed study's report title carries the scaled mix, so the
// proportional-rescale arithmetic (base 390 → 60, every stream >= 1)
// is asserted end-to-end.
func TestScenarioCommandTasks(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"scenario", "-seed", "1", "-tasks", "60"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"36 batch + 3 deadline (+1 hopeless) + 18 interactive", "COMPOSED", "CARBON-BLIND"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestLiveCommandTasksConcurrency drives the live study through the
// dispatch with a doubled request mix under a bounded-admission master:
// the expected-dollar line proves -tasks reached the config (13 → 26
// doubles every stream, so the ledger expectation is $16.40), and the
// run completing proves WithConcurrency held under the full stack.
func TestLiveCommandTasksConcurrency(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"live", "-tasks", "26", "-concurrency", "4"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"expected $16.40", "IN-PROCESS", "TCP", "LIVE serving path"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// A negative bound must be rejected before any SED spins up.
	if err := run([]string{"live", "-concurrency", "-2"}, &b); err == nil || !strings.Contains(err.Error(), "concurrency") {
		t.Errorf("negative -concurrency accepted: %v", err)
	}
}

// TestScenarioCommandTrace writes the composed sim run's span trees
// with -spans and reads them back through the spans analyzer: the
// simulated stream has the live schema, one trace per task.
func TestScenarioCommandTrace(t *testing.T) {
	dir := t.TempDir()
	spansPath := filepath.Join(dir, "scenario.jsonl")
	var b strings.Builder
	if err := run([]string{"scenario", "-seed", "1", "-spans", spansPath}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "request span trees (COMPOSED run) written") {
		t.Errorf("scenario output does not mention the span file:\n%s", b.String())
	}
	f, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := obs.ReadSpans(f)
	if err != nil {
		t.Fatalf("span stream does not parse: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("empty span stream")
	}
	for _, sp := range spans[:min(len(spans), 50)] {
		if sp.Src != "sim" || sp.Name == "" || sp.TraceID == 0 {
			t.Fatalf("malformed span: %+v", sp)
		}
	}
	b.Reset()
	if err := run([]string{"spans", spansPath}, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Per-stage latency", "park", "queue", "Critical path"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("spans output missing %q:\n%s", want, b.String())
		}
	}
}

// TestLiveCommandJournal runs the live study with -journal and feeds
// each transport's WAL back through the journal inspect subcommand:
// every admitted lifecycle settled (batch via a deferral, hopeless via
// a rejection), so the incomplete set is empty and the tail is clean.
func TestLiveCommandJournal(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "live")
	var b strings.Builder
	if err := run([]string{"live", "-journal", prefix}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dispatch journals written to") {
		t.Errorf("live output does not mention the journal files:\n%s", b.String())
	}
	for _, wal := range []string{prefix + ".in-process.wal", prefix + ".tcp.wal"} {
		b.Reset()
		if err := run([]string{"journal", wal}, &b); err != nil {
			t.Fatalf("journal %s: %v", wal, err)
		}
		out := b.String()
		for _, want := range []string{"admitted", "deferred", "completed", "rejected", "incomplete: 0", "clean tail"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s inspect missing %q:\n%s", wal, want, out)
			}
		}
		if strings.Contains(out, "failed") || strings.Contains(out, "torn tail") {
			t.Errorf("%s inspect reports failures or a torn tail on a clean run:\n%s", wal, out)
		}
	}
}

// TestJournalCommand pins the inspector's contract on a hand-built
// WAL: a leased lifecycle shows in the incomplete set with its owner,
// trailing garbage is reported as a torn tail, the file itself is not
// modified (inspection is read-only), and bad invocations error.
func TestJournalCommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "master.wal")
	j, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(journal.Record{ID: 1, Service: "compute", Ops: 1e6}); err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(journal.Record{ID: 2, Service: "compute", Ops: 1e6}); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Lease(2, "sed-a", 30); err != nil {
		t.Fatal(err)
	}
	if err := j.Settle(1, journal.StateCompleted, 1, 0.5, 10, ""); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn mid-append")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := run([]string{"journal", path}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"4 records over 2 lifecycles",
		"incomplete: 1 of 2",
		"leased to sed-a",
		"torn tail",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect missing %q:\n%s", want, out)
		}
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Errorf("inspection changed the file: %d -> %d bytes", before.Size(), after.Size())
	}

	if err := run([]string{"journal"}, &b); err == nil {
		t.Error("journal without a file must fail")
	}
	if err := run([]string{"journal", filepath.Join(dir, "nope.wal")}, &b); err == nil {
		t.Error("journal on a missing file must fail")
	}
}

// TestDurableCommandSmoke runs the kill/restart drill through the CLI
// dispatch with a kept directory: the report renders and the .wal
// files survive for `greensched journal`.
func TestDurableCommandSmoke(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"durable", dir}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Durable dispatch", "kill+restart", "redone on", "dispatch journals kept under"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	wals, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no .wal files kept in %s (%v)", dir, err)
	}
}

// powerdHold starts `greensched powerd` through the dispatch in a
// goroutine (held up by -hold) and returns a channel carrying its exit
// error. The builder must not be read before the channel delivers.
func powerdHold(args []string, b *strings.Builder) <-chan error {
	done := make(chan error, 1)
	go func() { done <- run(args, b) }()
	return done
}

// awaitReading polls the client until the sidecar answers, failing the
// test if it never comes up.
func awaitReading(t *testing.T, cli *powerd.Client, node string, metrics []string, values []float64) power.Watts {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if w, ok := cli.NodePowerW(node, metrics, values); ok {
			return w
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("sidecar never answered for node %s", node)
	return 0
}

// TestPowerdCommandSmoke starts the reference sidecar through the CLI
// dispatch on a unix socket, completes a live protocol exchange against
// the default analytic-curve model while -hold keeps it serving, and
// checks the banner and exit report.
func TestPowerdCommandSmoke(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "powerd.sock")
	var b strings.Builder
	done := powerdHold([]string{"powerd", "-listen", "unix:" + sock, "-hold", "1.5"}, &b)

	cli, err := powerd.NewClient(powerd.Config{Addr: "unix:" + sock, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	got := awaitReading(t, cli, "taurus-0", []string{power.MetricUtil}, []float64{0.5})
	spec, ok := cluster.Spec("taurus")
	if !ok {
		t.Fatal("no taurus in the catalog")
	}
	if want := spec.PowerModel().Power(power.On, 0.5); got != want {
		t.Errorf("taurus-0 at util 0.5: got %v W, want %v W", got, want)
	}
	// A node outside Table I is served by the generic default curve.
	if w := awaitReading(t, cli, "lean", []string{power.MetricUtil}, []float64{0}); w != 100 {
		t.Errorf("unknown node idle draw: got %v W, want the generic 100 W", w)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"serving power protocol v1", "unix:" + sock, "(model curve)", "powerd: answered"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestPowerdCommandTrace serves a recorded node,t,watts CSV through the
// dispatch: time-keyed lookups answer with the traced figures and the
// banner names the trace model.
func TestPowerdCommandTrace(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "power.csv")
	csv := "node,t,watts\nlean,0,80\nlean,10,91\nhungry,0,320\n"
	if err := os.WriteFile(csvPath, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(dir, "powerd.sock")
	var b strings.Builder
	done := powerdHold([]string{"powerd", "-listen", "unix:" + sock, "-trace", csvPath, "-hold", "1.5"}, &b)

	cli, err := powerd.NewClient(powerd.Config{Addr: "unix:" + sock, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if w := awaitReading(t, cli, "lean", []string{power.MetricTime}, []float64{5}); w != 80 {
		t.Errorf("lean at t=5: got %v W, want the traced 80 W", w)
	}
	if w := awaitReading(t, cli, "lean", []string{power.MetricTime}, []float64{12}); w != 91 {
		t.Errorf("lean at t=12: got %v W, want the traced 91 W", w)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"replaying 2 traced nodes", "(model trace)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestPowerdCommandErrors pins the failure paths: an unlistenable
// address and a missing trace file both fail before serving.
func TestPowerdCommandErrors(t *testing.T) {
	var b strings.Builder
	bad := filepath.Join(t.TempDir(), "no-such-dir", "powerd.sock")
	if err := run([]string{"powerd", "-listen", "unix:" + bad, "-hold", "0.01"}, &b); err == nil {
		t.Error("unlistenable address accepted")
	}
	missing := filepath.Join(t.TempDir(), "nope.csv")
	if err := run([]string{"powerd", "-trace", missing, "-hold", "0.01"}, &b); err == nil {
		t.Error("missing trace file accepted")
	}
}

// TestLiveCommandExternalPower points the live study at a powerd
// sidecar through -power: the per-transport report lines carry the
// sidecar request counts with zero fallbacks, and the sidecar actually
// answered on the wire.
func TestLiveCommandExternalPower(t *testing.T) {
	addr := "unix:" + filepath.Join(t.TempDir(), "powerd.sock")
	srv, err := powerd.Serve(addr, power.StaticSource{"lean": 80, "hungry": 320}, powerd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var b strings.Builder
	if err := run([]string{"live", "-power", addr}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"external power", "0 fallbacks (breaker open: false)", "LIVE serving path"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if srv.Requests() == 0 {
		t.Error("sidecar never queried over the wire")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestUnknownCommandAndMissingArgs(t *testing.T) {
	var b strings.Builder
	if err := run([]string{}, &b); err != errUsage {
		t.Errorf("no args: %v, want errUsage", err)
	}
	// An unknown subcommand must not fall through silently: the error
	// names the command the user typed.
	err := run([]string{"frobnicate"}, &b)
	if err == nil {
		t.Fatal("unknown command accepted")
	}
	if err == errUsage {
		t.Error("unknown command collapsed into the bare usage error")
	}
	if !strings.Contains(err.Error(), `"frobnicate"`) {
		t.Errorf("unknown-command error %q does not name the command", err)
	}
	if err := run([]string{"replay"}, &b); err == nil {
		t.Error("replay without -trace must fail")
	}
}

// TestBadFlagReturnsUsage: an undefined flag comes back as errUsage
// instead of exiting the process that called run.
func TestBadFlagReturnsUsage(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"placement", "-nosuchflag"}, &b); err != errUsage {
		t.Fatalf("bad flag: %v, want errUsage", err)
	}
	if err := run([]string{"placement", "-h"}, &b); err != nil {
		t.Fatalf("-h: %v, want nil", err)
	}
}

// TestUsageListsScenarioCommand keeps the help text in sync with the
// run() switch: the composed-stack subcommand is documented.
func TestUsageListsScenarioCommand(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"help"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scenario", "carbon + SLA + preemption + budget", "live", "interceptors over", "durable", "journal FILE", "-journal F", "powerd", "power-estimation sidecar", "-power A", "-listen A"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("usage text missing %q:\n%s", want, b.String())
		}
	}
}

// TestAllGolden pins every line `greensched all` prints at the default
// seed — the byte-identical-output gate refactors are held to.
// Regenerate after a deliberate change to an experiment with:
//
//	UPDATE_GOLDEN=1 go test ./cmd/greensched/ -run TestAllGolden
func TestAllGolden(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"all"}, &buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "all.seed1.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() == string(want) {
		return
	}
	// 304 lines of tables: name the first line that moved.
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(got) && i < len(exp) && got[i] == exp[i] {
		i++
	}
	t.Fatalf("`greensched all` drifted from golden at line %d (got %d lines, want %d):\n got: %q\nwant: %q",
		i+1, len(got), len(exp), append(got, "")[i], append(exp, "")[i])
}

// TestCSVGolden pins the six figure CSVs `placement -csv` and
// `adaptive -csv` write at seed 1, byte for byte. Regenerate after a
// deliberate change to an experiment with:
//
//	UPDATE_GOLDEN=1 go test ./cmd/greensched/ -run TestCSVGolden
func TestCSVGolden(t *testing.T) {
	dir := t.TempDir()
	for _, cmd := range []string{"placement", "adaptive"} {
		if err := run([]string{cmd, "-seed", "1", "-csv", dir}, &strings.Builder{}); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
	}
	for _, name := range []string{
		"fig2_power_tasks.csv", "fig3_performance_tasks.csv", "fig4_random_tasks.csv",
		"fig5_power_energy.csv", "fig5_random_energy.csv", "fig9_adaptive.csv",
	} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", name)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s drifted from golden:\n got: %q\nwant: %q", name, got, want)
		}
	}
}

// TestReplicateGolden pins `greensched replicate -seeds 3` — the one
// seeded study `all` leaves out. Regenerate after a deliberate change
// to an experiment with:
//
//	UPDATE_GOLDEN=1 go test ./cmd/greensched/ -run TestReplicateGolden
func TestReplicateGolden(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"replicate", "-seeds", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "replicate.seeds3.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Fatalf("`greensched replicate -seeds 3` drifted from golden:\n got: %q\nwant: %q", buf.String(), want)
	}
}
