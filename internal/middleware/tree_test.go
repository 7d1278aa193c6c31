package middleware

import (
	"context"
	"testing"

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
	server, list, err := m.Elect(context.Background(), Request{Service: "burn", Ops: 1e7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// la-lyon forwards only its best candidate (TopK 1).
	if len(list) != 3 || list[0].Server != "deep-0" || list[1].Server != "taurus-0" || list[2].Server != "genepi-0" {
		t.Fatalf("hierarchy forwarded %v, want [deep-0 taurus-0 genepi-0]", list)
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

// TestMasterLookupMiss: an elected name the transport cannot resolve
// fails the request, and the interceptors see one failure record for
// the unroutable server.
func TestMasterLookupMiss(t *testing.T) {
	lean := newSED(t, "lean", 2, 2e9, 90)
	hungry := newSED(t, "hungry", 2, 2e9, 300)
	prime(t, map[string]*SED{"lean": lean, "hungry": hungry})
	dir := NewMapDirectory()
	dir.Add("hungry", hungry) // lean is attached but unroutable
	completions := 0
	var last RequestRecord
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		WithChildren(lean, hungry),
		WithTransport(dir),
		WithInterceptors(&testHooks{OnCompleteFunc: func(rec RequestRecord) {
			completions++
			last = rec
		}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Submit(context.Background(), "burn", 1e7, 0, nil)
	if want := `middleware: elected SED "lean" not in transport`; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if completions != 1 || last.Err == nil || last.Server != "lean" {
		t.Fatalf("OnComplete ran %d times with %+v, want one failure record for lean", completions, last)
	}
}

// TestElectExcluding: Elect masks the excluded servers before its one
// election, and masking every candidate is an error.
func TestElectExcluding(t *testing.T) {
	a := newSED(t, "a", 2, 2e9, 90)
	b := newSED(t, "b", 2, 2e9, 300)
	prime(t, map[string]*SED{"a": a, "b": b})
	ma, _ := NewMasterAgent("ma", sched.New(sched.Power))
	ma.Attach(a, b)
	server, _, err := ma.Elect(context.Background(), Request{Service: "burn", Ops: 1e7}, map[string]bool{"a": true})
	if err != nil {
		t.Fatal(err)
	}
	if server != "b" {
		t.Fatalf("elected %s with a excluded", server)
	}
	_, _, err = ma.Elect(context.Background(), Request{Service: "burn", Ops: 1e7},
		map[string]bool{"a": true, "b": true})
	if err == nil {
		t.Fatal("excluding everything should error")
	}
}
