package core_test

import (
	"testing"

	"greensched/internal/core"
	"greensched/internal/estvec"
	"greensched/internal/sched"
)

// vector builds the estimation vector a SED would return for s.
func vector(s core.Server) *estvec.Vector {
	return estvec.New(s.Name).
		Set(estvec.TagFlops, s.Flops).
		Set(estvec.TagPowerW, s.PowerW).
		Set(estvec.TagGreenPerf, s.GreenPerf()).
		Set(estvec.TagWaitSec, s.WaitSec).
		Set(estvec.TagBootSec, s.BootSec).
		Set(estvec.TagBootPowerW, s.BootPowerW).
		SetBool(estvec.TagActive, s.Active)
}

// Rank orders servers the way every election does: as estimation
// vectors sorted by a sched.Policy, best first. The input is left as
// given.
func Rank(servers []core.Server, p sched.Policy) []core.Server {
	list := make(estvec.List, len(servers))
	byVec := make(map[*estvec.Vector]core.Server, len(servers))
	for i, s := range servers {
		list[i] = vector(s)
		byVec[list[i]] = s
	}
	list.SortStable(p.Less)
	out := make([]core.Server, len(list))
	for i, v := range list {
		out[i] = byVec[v]
	}
	return out
}

func srv(name string, flops, pw float64) core.Server {
	return core.Server{Name: name, Flops: flops, PowerW: pw, Active: true}
}

func TestRankCriteria(t *testing.T) {
	servers := []core.Server{
		srv("hungry-fast", 10e9, 500), // gp = 50e-9
		srv("lean-slow", 2e9, 60),     // gp = 30e-9
		srv("balanced", 5e9, 200),     // gp = 40e-9
	}
	gp := Rank(servers, sched.New(sched.GreenPerf))
	if gp[0].Name != "lean-slow" || gp[1].Name != "balanced" || gp[2].Name != "hungry-fast" {
		t.Fatalf("GreenPerf rank = %v", gp)
	}
	if servers[0].Name != "hungry-fast" {
		t.Fatal("Rank mutated input slice")
	}
}

func TestRankTiebreaks(t *testing.T) {
	greenPerf := sched.New(sched.GreenPerf)
	a := srv("a", 5e9, 100)
	b := srv("b", 10e9, 200) // same GreenPerf, faster
	got := Rank([]core.Server{a, b}, greenPerf)
	if got[0].Name != "b" {
		t.Fatal("GreenPerf tie must break by performance descending")
	}
	c := srv("c", 10e9, 200)
	got = Rank([]core.Server{c, b}, greenPerf)
	if got[0].Name != "b" {
		t.Fatal("full tie must break by name")
	}
}

func TestByScoreCriterion(t *testing.T) {
	fast := core.Server{Name: "fast", Flops: 10e9, PowerW: 400, Active: true}
	lean := core.Server{Name: "lean", Flops: 2e9, PowerW: 60, Active: true}
	got := Rank([]core.Server{lean, fast}, sched.ScorePolicy{Ops: 1e12, Pref: -0.9})
	if got[0].Name != "fast" {
		t.Fatal("score rank with P=-0.9 should put fast first")
	}
	got = Rank([]core.Server{fast, lean}, sched.ScorePolicy{Ops: 1e12, Pref: 0.9})
	if got[0].Name != "lean" {
		t.Fatal("score rank with P=+0.9 should put lean first")
	}
	if (sched.ScorePolicy{Ops: 1, Pref: 0.5}).Name() == "" || sched.New(sched.GreenPerf).Name() != "GREENPERF" {
		t.Fatal("policy names wrong")
	}
}

func TestByDeadlineSlackFeasibleFirst(t *testing.T) {
	fast := core.Server{Name: "fast", Flops: 1e9, PowerW: 400, Active: true}               // meets: 100 s
	lean := core.Server{Name: "lean", Flops: 1e9, PowerW: 100, Active: true, WaitSec: 900} // misses: 1000 s
	slow := core.Server{Name: "slow", Flops: 1e8, PowerW: 100, Active: true}               // misses: 1000 s exec

	greenPerf := sched.New(sched.GreenPerf)
	p := sched.DeadlineAware{Base: greenPerf, Ops: 1e11, Now: 0, Deadline: 500}
	ranked := Rank([]core.Server{slow, lean, fast}, p)
	if ranked[0].Name != "fast" {
		t.Fatalf("feasible server must rank first, got %v", ranked[0].Name)
	}
	// The two misses order least-late first: lean misses by 500, slow
	// by 500 — equal, so GreenPerf breaks the tie (lean wins).
	if ranked[1].Name != "lean" || ranked[2].Name != "slow" {
		t.Fatalf("miss ordering wrong: %v, %v", ranked[1].Name, ranked[2].Name)
	}

	// Both feasible: GreenPerf decides.
	loose := sched.DeadlineAware{Base: greenPerf, Ops: 1e11, Now: 0, Deadline: 1e6}
	ranked = Rank([]core.Server{fast, lean}, loose)
	if ranked[0].Name != "lean" {
		t.Error("feasible set must stay green-ordered")
	}
	if p.Name() == "" {
		t.Error("policy must name itself")
	}
}
