package middleware

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"greensched/internal/estvec"
	"greensched/internal/obs"
	"greensched/internal/sched"
)

// TestAgentTreeWiresHierarchy: a master → local agents → SEDs tree
// (the paper's deployment shape) elects through its sub-agents, and a
// local agent's TopK bounds what it forwards upward.
func TestAgentTreeWiresHierarchy(t *testing.T) {
	policy := sched.New(sched.Power)
	seds := map[string]*SED{}
	dir := NewMapDirectory()
	agent := func(name string, topK int, children ...Child) *Agent {
		a, err := NewAgent(name, policy, topK)
		if err != nil {
			t.Fatal(err)
		}
		a.Attach(children...)
		return a
	}
	mk := func(name string, watts float64) *SED {
		sed := newSED(t, name, 2, 2e9, watts)
		seds[name] = sed
		dir.Add(name, sed)
		return sed
	}
	deep := agent("la-deep", 0, mk("deep-0", 90))
	m, err := NewMaster(
		WithName("ma"),
		WithPolicy(policy),
		WithChildren(
			agent("la-lyon", 1, mk("taurus-0", 150), mk("taurus-1", 155)),
			agent("la-grenoble", 0, mk("genepi-0", 250), deep),
		),
		WithTransport(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	prime(t, seds)
	server, list, err := m.Elect(context.Background(), Request{Service: "burn", Ops: 1e7})
	if err != nil {
		t.Fatal(err)
	}
	// la-lyon forwards only its best candidate (TopK 1).
	if got := list.Servers(); len(got) != 3 || got[0] != "deep-0" || got[1] != "taurus-0" || got[2] != "genepi-0" {
		t.Fatalf("hierarchy forwarded %v, want [deep-0 taurus-0 genepi-0]", got)
	}
	if server != "deep-0" {
		t.Fatalf("POWER elected %s, want deep-0 (90 W)", server)
	}
	resp, err := m.Submit(context.Background(), "burn", 1e7, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Server != "deep-0" {
		t.Fatalf("request solved on %s, want deep-0 through two agent levels", resp.Server)
	}
}

// flakySED fails its first n Solve calls.
type flakySED struct {
	*SED
	failures atomic.Int64
}

func (f *flakySED) Solve(ctx context.Context, req Request) (Response, error) {
	if f.failures.Add(-1) >= 0 {
		return Response{}, errors.New("injected failure")
	}
	return f.SED.Solve(ctx, req)
}

// flakyMaster mounts SEDs behind always-failing wrappers: the agent
// tree estimates against the real SEDs, the transport routes Solve to
// the wrappers for the names in flaky.
func flakyMaster(t *testing.T, retries int, flaky map[string]*flakySED, seds ...*SED) *Master {
	t.Helper()
	dir := NewMapDirectory()
	children := make([]Child, len(seds))
	for i, sed := range seds {
		children[i] = sed
		if f, ok := flaky[sed.Name()]; ok {
			dir.Add(sed.Name(), f)
		} else {
			dir.Add(sed.Name(), sed)
		}
	}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		WithChildren(children...),
		WithTransport(dir),
		WithRetries(retries),
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func alwaysFails(sed *SED) *flakySED {
	f := &flakySED{SED: sed}
	f.failures.Store(100)
	return f
}

func TestMasterRetryFailsOver(t *testing.T) {
	lean := newSED(t, "lean", 2, 2e9, 90)
	hungry := newSED(t, "hungry", 2, 2e9, 300)
	prime(t, map[string]*SED{"lean": lean, "hungry": hungry})
	flaky := map[string]*flakySED{"lean": alwaysFails(lean)}

	// Without retries the master elects lean (lowest watts) and fails.
	if _, err := flakyMaster(t, 0, flaky, lean, hungry).Submit(context.Background(), "burn", 1e7, 0, nil); err == nil {
		t.Fatal("expected failure without retry")
	}
	// With retries the request fails over to hungry.
	m := flakyMaster(t, 2, flaky, lean, hungry)
	resp, err := m.Submit(context.Background(), "burn", 1e7, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Server != "hungry" {
		t.Fatalf("failover elected %s, want hungry", resp.Server)
	}
	if res := m.Finalize(); res.Completed != 1 || res.Failed != 0 {
		t.Fatalf("result %+v, want one completion and no failure", res)
	}
}

func TestMasterRetryExhaustsAttempts(t *testing.T) {
	lean := newSED(t, "lean", 2, 2e9, 90)
	hungry := newSED(t, "hungry", 2, 2e9, 300)
	prime(t, map[string]*SED{"lean": lean, "hungry": hungry})

	// Attempts run out before candidates do: the last Solve error
	// comes back after each SED was tried once.
	flaky := map[string]*flakySED{"lean": alwaysFails(lean), "hungry": alwaysFails(hungry)}
	m := flakyMaster(t, 1, flaky, lean, hungry)
	_, err := m.Submit(context.Background(), "burn", 1e7, 0, nil)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("err = %v, want the last injected failure", err)
	}
	for name, f := range flaky {
		if got := 100 - f.failures.Load(); got != 1 {
			t.Errorf("%s solved %d times, want 1", name, got)
		}
	}
	if res := m.Finalize(); res.Failed != 1 || res.Completed != 0 {
		t.Fatalf("result %+v, want exactly one failure", res)
	}

	// Candidates run out before attempts do: the re-election reports
	// that every candidate is excluded instead of retrying lean.
	only := alwaysFails(lean)
	_, err = flakyMaster(t, 3, map[string]*flakySED{"lean": only}, lean).Submit(context.Background(), "burn", 1e7, 0, nil)
	if err == nil || !strings.Contains(err.Error(), "excluded") {
		t.Fatalf("err = %v, want all candidates excluded", err)
	}
	if got := 100 - only.failures.Load(); got != 1 {
		t.Errorf("lone SED solved %d times, want 1", got)
	}
}

// TestMasterRetryCancelledContextIsTerminal: a failure that arrives
// with the caller's context cancelled is the client giving up, not the
// server failing — no re-election, the healthy SED is never tried.
func TestMasterRetryCancelledContextIsTerminal(t *testing.T) {
	lean := newSED(t, "lean", 2, 2e9, 90)
	hungry := newSED(t, "hungry", 2, 2e9, 300)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := lean.Register(Service{Name: "quit", Solve: func(context.Context, Request) ([]byte, error) {
		cancel()
		return nil, ctx.Err()
	}}); err != nil {
		t.Fatal(err)
	}
	var hungrySolves atomic.Int64
	if err := hungry.Register(Service{Name: "quit", Solve: func(context.Context, Request) ([]byte, error) {
		hungrySolves.Add(1)
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	prime(t, map[string]*SED{"lean": lean, "hungry": hungry})
	m := flakyMaster(t, 2, nil, lean, hungry)
	if _, err := m.Do(ctx, Request{Service: "quit", Ops: 1e6}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := hungrySolves.Load(); n != 0 {
		t.Fatalf("cancelled request was retried on hungry %d times", n)
	}
}

// TestMasterRetryLookupMiss: an elected name the transport cannot
// resolve fails over like a failed Solve — the server is excluded and
// the request completes on the other SED, the second election being a
// "reelect" span. Without retries the lookup miss is the error.
func TestMasterRetryLookupMiss(t *testing.T) {
	lean := newSED(t, "lean", 2, 2e9, 90)
	hungry := newSED(t, "hungry", 2, 2e9, 300)
	prime(t, map[string]*SED{"lean": lean, "hungry": hungry})
	build := func(retries int, w *obs.SpanWriter, ics ...Interceptor) *Master {
		dir := NewMapDirectory()
		dir.Add("hungry", hungry) // lean is attached but unroutable
		m, err := NewMaster(
			WithPolicy(sched.New(sched.Power)),
			WithChildren(lean, hungry),
			WithTransport(dir),
			WithRetries(retries),
			WithSpans(w),
			WithInterceptors(ics...),
		)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	var buf bytes.Buffer
	m := build(1, obs.NewSpanWriter(&buf))
	resp, err := m.Submit(context.Background(), "burn", 1e7, 0, nil)
	if err != nil {
		t.Fatalf("lookup miss did not fail over: %v", err)
	}
	if resp.Server != "hungry" {
		t.Fatalf("failover elected %s, want hungry", resp.Server)
	}
	wantOneReelect(t, &buf, "hungry")

	completions := 0
	var last RequestRecord
	m = build(0, nil, &HookInterceptor{OnCompleteFunc: func(rec RequestRecord) {
		completions++
		last = rec
	}})
	_, err = m.Submit(context.Background(), "burn", 1e7, 0, nil)
	if want := `middleware: elected SED "lean" not in transport`; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if completions != 1 || last.Err == nil || last.Server != "lean" {
		t.Fatalf("OnComplete ran %d times with %+v, want one failure record for lean", completions, last)
	}
}

func TestElectExcluding(t *testing.T) {
	a := newSED(t, "a", 2, 2e9, 90)
	b := newSED(t, "b", 2, 2e9, 300)
	prime(t, map[string]*SED{"a": a, "b": b})
	ma, _ := NewMasterAgent("ma", sched.New(sched.Power))
	ma.Attach(a, b)
	server, _, err := ma.ElectExcluding(context.Background(), Request{Service: "burn", Ops: 1e7}, map[string]bool{"a": true})
	if err != nil {
		t.Fatal(err)
	}
	if server != "b" {
		t.Fatalf("elected %s with a excluded", server)
	}
	_, _, err = ma.ElectExcluding(context.Background(), Request{Service: "burn", Ops: 1e7},
		map[string]bool{"a": true, "b": true})
	if err == nil {
		t.Fatal("excluding everything should error")
	}
}

func TestProviderFilterAlgorithm1(t *testing.T) {
	mk := func(name string, flops, watts float64) *estvec.Vector {
		return estvec.New(name).
			Set(estvec.TagFlops, flops).
			Set(estvec.TagPowerW, watts).
			SetBool(estvec.TagActive, true)
	}
	list := estvec.List{
		mk("green", 10e9, 100),
		mk("mid", 8e9, 150),
		mk("hot", 5e9, 250),
	}
	// pref 0.5: P_total=500, required 250 → green(100)+mid(150).
	filter := ProviderFilter(func() float64 { return 0.5 })
	out := filter(list)
	if len(out) != 2 || out[0].Server != "green" || out[1].Server != "mid" {
		t.Fatalf("filtered = %v", out.Servers())
	}
	// Unmeasured servers always pass (learning phase).
	novice := estvec.New("novice").SetBool(estvec.TagActive, true)
	out = filter(append(list, novice))
	found := false
	for _, v := range out {
		if v.Server == "novice" {
			found = true
		}
	}
	if !found {
		t.Fatal("unmeasured server dropped by provider filter")
	}
	// pref 0: only unmeasured pass.
	zero := ProviderFilter(func() float64 { return 0 })
	out = zero(append(list, novice))
	if len(out) != 1 || out[0].Server != "novice" {
		t.Fatalf("zero-pref filter = %v", out.Servers())
	}
}

func TestProviderFilterOnMasterAgent(t *testing.T) {
	seds := map[string]*SED{}
	var all []*SED
	for i, w := range []float64{90, 150, 400} {
		sed := newSED(t, fmt.Sprintf("s%d", i), 2, 2e9, w)
		seds[sed.Name()] = sed
		all = append(all, sed)
	}
	prime(t, seds)
	// A stingy provider excludes the hungriest server.
	m, err := NewMaster(
		WithPolicy(sched.New(sched.GreenPerf)),
		WithSEDs(all...),
		WithCandidateFilter(ProviderFilter(func() float64 { return 0.4 })),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		resp, err := m.Submit(context.Background(), "burn", 1e7, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Server == "s2" {
			t.Fatal("power-capped candidate set still elected the 400 W server")
		}
	}
}
