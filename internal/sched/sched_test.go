package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"greensched/internal/core"
	"greensched/internal/estvec"
)

// vec builds a SED response typical of the experiments.
func vec(name string, flops, pw float64, freeCores, cores, queueLen int) *estvec.Vector {
	v := estvec.New(name).
		Set(estvec.TagFlops, flops).
		Set(estvec.TagPowerW, pw).
		Set(estvec.TagGreenPerf, pw/flops).
		Set(estvec.TagFreeCores, float64(freeCores)).
		Set(TagCores(), float64(cores)).
		Set(estvec.TagQueueLen, float64(queueLen)).
		SetBool(estvec.TagActive, true).
		SetBool(estvec.TagKnown, true).
		Set(estvec.TagRequests, 10)
	return v
}

func TestNewKnownKinds(t *testing.T) {
	for _, k := range []Kind{Random, Power, Performance, GreenPerf} {
		p := New(k)
		if p.Name() != string(k) {
			t.Errorf("New(%s).Name() = %s", k, p.Name())
		}
	}
	if len(Kinds()) != 3 {
		t.Fatal("Kinds should list the three paper policies")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind should panic")
		}
	}()
	New(Kind("BOGUS"))
}

func TestPowerPolicyOrdering(t *testing.T) {
	lean := vec("lean", 5e9, 100, 1, 2, 0)
	hungry := vec("hungry", 9e9, 300, 1, 2, 0)
	p := New(Power)
	if !p.Less(lean, hungry) || p.Less(hungry, lean) {
		t.Fatal("POWER must prefer the lower draw")
	}
	// Tie on power: faster first.
	fastSame := vec("fast", 9e9, 100, 1, 2, 0)
	if !p.Less(fastSame, lean) {
		t.Fatal("POWER tie must break by performance")
	}
}

func TestPerformancePolicyOrdering(t *testing.T) {
	slow := vec("slow", 4e9, 100, 1, 2, 0)
	fast := vec("fast", 9e9, 300, 1, 2, 0)
	p := New(Performance)
	if !p.Less(fast, slow) || p.Less(slow, fast) {
		t.Fatal("PERFORMANCE must prefer the higher flops")
	}
	leanSame := vec("lean", 9e9, 100, 1, 2, 0)
	if !p.Less(leanSame, fast) {
		t.Fatal("PERFORMANCE tie must break by power")
	}
}

func TestGreenPerfPolicyOrdering(t *testing.T) {
	// gp: a = 20e-9, b = 30e-9 — a wins despite higher raw power.
	a := vec("a", 10e9, 200, 1, 2, 0)
	b := vec("b", 5e9, 150, 1, 2, 0)
	p := New(GreenPerf)
	if !p.Less(a, b) {
		t.Fatal("GREENPERF must rank by ratio, not raw power")
	}
	// Equal ratio: the faster server first (§III-A's secondary
	// parameter), then the name.
	slow := vec("c", 5e9, 100, 1, 2, 0)
	fast := vec("d", 10e9, 200, 1, 2, 0)
	if !p.Less(fast, slow) || p.Less(slow, fast) {
		t.Fatal("GREENPERF tie must break by performance descending")
	}
	if twin := vec("e", 10e9, 200, 1, 2, 0); !p.Less(fast, twin) {
		t.Fatal("full tie must break by name")
	}
}

// TestFigure1Example places Figure 1's 7 tasks on 5 servers through
// the production selector: the most energy-efficient servers get
// priority, S0 being the best under GreenPerf.
func TestFigure1Example(t *testing.T) {
	list := estvec.List{
		vec("S3", 5e9, 200, 1, 1, 0),  // gp 40e-9
		vec("S0", 10e9, 100, 2, 2, 0), // gp 10e-9, best
		vec("S4", 4e9, 300, 1, 1, 0),  // gp 75e-9
		vec("S1", 8e9, 120, 2, 2, 0),  // gp 15e-9
		vec("S2", 6e9, 150, 1, 1, 0),  // gp 25e-9
	}
	s := &Selector{Policy: New(GreenPerf)}
	var placed []string
	for task := 0; task < 7; task++ {
		v, err := s.Select(list)
		if err != nil {
			t.Fatalf("task %d: %v", task, err)
		}
		placed = append(placed, v.Server)
		v.Set(estvec.TagFreeCores, v.Value(estvec.TagFreeCores, 0)-1)
	}
	if fmt.Sprint(placed) != "[S0 S0 S1 S1 S2 S3 S4]" {
		t.Fatalf("placement = %v, want S0 S0 S1 S1 S2 S3 S4", placed)
	}
}

func TestRandomPolicyUsesRandomTag(t *testing.T) {
	a := vec("a", 1e9, 100, 1, 2, 0).Set(estvec.TagRandom, 0.7)
	b := vec("b", 9e9, 10, 1, 2, 0).Set(estvec.TagRandom, 0.1)
	p := New(Random)
	if !p.Less(b, a) || p.Less(a, b) {
		t.Fatal("RANDOM must order by the random draw only")
	}
}

func TestScorePolicyPreferenceSwing(t *testing.T) {
	fast := vec("fast", 10e9, 400, 1, 2, 0)
	lean := vec("lean", 2e9, 60, 1, 2, 0)
	perfSeeker := ScorePolicy{Ops: 1e12, Pref: -0.9}
	if !perfSeeker.Less(fast, lean) {
		t.Fatal("P=-0.9 should rank fast first")
	}
	greenSeeker := ScorePolicy{Ops: 1e12, Pref: 0.9}
	if !greenSeeker.Less(lean, fast) {
		t.Fatal("P=+0.9 should rank lean first")
	}
	if perfSeeker.Name() != "SCORE(P=-0.90)" {
		t.Fatalf("Name = %q", perfSeeker.Name())
	}
}

func TestScorePolicyMissingTagsRankLast(t *testing.T) {
	known := vec("known", 5e9, 100, 1, 2, 0)
	unknown := estvec.New("unknown").SetBool(estvec.TagActive, true)
	p := ScorePolicy{Ops: 1e9, Pref: 0}
	if !p.Less(known, unknown) || p.Less(unknown, known) {
		t.Fatal("servers without estimates must rank last")
	}
	// Two unknowns: deterministic name order.
	u2 := estvec.New("aunknown").SetBool(estvec.TagActive, true)
	if !p.Less(u2, unknown) {
		t.Fatal("unknown tie must break by name")
	}
}

func TestServerFromVector(t *testing.T) {
	v := vec("s", 9e9, 222, 3, 12, 1).
		Set(estvec.TagWaitSec, 4).
		Set(estvec.TagBootSec, 120).
		Set(estvec.TagBootPowerW, 170)
	srv, ok := ServerFromVector(v)
	if !ok {
		t.Fatal("conversion failed")
	}
	want := core.Server{Name: "s", Flops: 9e9, PowerW: 222, BootPowerW: 170, BootSec: 120, WaitSec: 4, Active: true}
	if srv != want {
		t.Fatalf("ServerFromVector = %+v, want %+v", srv, want)
	}
	if _, ok := ServerFromVector(estvec.New("x")); ok {
		t.Fatal("vector without estimates should not convert")
	}
	// Negative wait (clock skew) clamps to zero.
	v.Set(estvec.TagWaitSec, -3)
	srv, _ = ServerFromVector(v)
	if srv.WaitSec != 0 {
		t.Fatal("negative wait should clamp to 0")
	}
}

func TestSelectorEmptyAndInactive(t *testing.T) {
	s := NewSelector(New(Power))
	if _, err := s.Select(nil); err != ErrNoServer {
		t.Fatalf("empty list: err = %v, want ErrNoServer", err)
	}
	off := vec("off", 1e9, 100, 1, 2, 0).SetBool(estvec.TagActive, false)
	if _, err := s.Select(estvec.List{off}); err != ErrNoServer {
		t.Fatalf("all inactive: err = %v, want ErrNoServer", err)
	}
}

func TestSelectorPrefersPolicyBestWithFreeCore(t *testing.T) {
	s := NewSelector(New(Power))
	lean := vec("lean", 5e9, 100, 2, 4, 0)
	hungry := vec("hungry", 9e9, 300, 4, 4, 0)
	got, err := s.Select(estvec.List{hungry, lean})
	if err != nil {
		t.Fatal(err)
	}
	if got.Server != "lean" {
		t.Fatalf("selected %s, want lean", got.Server)
	}
}

func TestSelectorLearningPhaseFirst(t *testing.T) {
	s := NewSelector(New(Power))
	known := vec("known", 5e9, 50, 4, 4, 0)
	novice := vec("novice", 9e9, 999, 4, 4, 0).SetBool(estvec.TagKnown, false).Set(estvec.TagRequests, 0)
	got, _ := s.Select(estvec.List{known, novice})
	if got.Server != "novice" {
		t.Fatal("unknown server must be explored first")
	}
	// Exploration disabled: policy best wins.
	s.Explore = false
	got, _ = s.Select(estvec.List{known, novice})
	if got.Server != "known" {
		t.Fatal("without exploration the policy best must win")
	}
}

func TestSelectorLearningPrefersFewestRequests(t *testing.T) {
	s := NewSelector(New(Power))
	a := vec("a", 5e9, 50, 1, 2, 0).SetBool(estvec.TagKnown, false).Set(estvec.TagRequests, 3)
	b := vec("b", 5e9, 70, 1, 2, 0).SetBool(estvec.TagKnown, false).Set(estvec.TagRequests, 1)
	got, _ := s.Select(estvec.List{a, b})
	if got.Server != "b" {
		t.Fatal("learning must prefer the least-measured server")
	}
	// Busy unknown servers cannot be explored.
	b.Set(estvec.TagFreeCores, 0)
	got, _ = s.Select(estvec.List{a, b})
	if got.Server != "a" {
		t.Fatal("full unknown server must be skipped")
	}
}

func TestSelectorOverloadSpill(t *testing.T) {
	s := NewSelector(New(Power))
	// Preferred (lean) node is full with a saturated queue
	// (queue 4 == 1.0×4 cores); spill to the hungry one.
	lean := vec("lean", 5e9, 100, 0, 4, 4)
	hungry := vec("hungry", 9e9, 300, 0, 4, 1)
	got, _ := s.Select(estvec.List{lean, hungry})
	if got.Server != "hungry" {
		t.Fatalf("selected %s, want spill to hungry", got.Server)
	}
	// With a bigger queue factor the lean node keeps absorbing.
	s.QueueFactor = 2
	got, _ = s.Select(estvec.List{lean, hungry})
	if got.Server != "lean" {
		t.Fatalf("QueueFactor=2: selected %s, want lean", got.Server)
	}
}

func TestSelectorSaturatedFallsBackToMinWait(t *testing.T) {
	s := NewSelector(New(Power))
	a := vec("a", 5e9, 100, 0, 2, 2).Set(estvec.TagWaitSec, 50)
	b := vec("b", 9e9, 300, 0, 2, 2).Set(estvec.TagWaitSec, 10)
	got, _ := s.Select(estvec.List{a, b})
	if got.Server != "b" {
		t.Fatal("saturated platform must elect the min-wait server")
	}
}

func TestSelectorZeroQueueFactorDefaults(t *testing.T) {
	s := &Selector{Policy: New(Power), QueueFactor: 0}
	full := vec("full", 5e9, 100, 0, 2, 1) // queue 1 < 1.0*2
	got, err := s.Select(estvec.List{full})
	if err != nil || got.Server != "full" {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestSelectorRankAllIgnoresFreePreference(t *testing.T) {
	s := &Selector{Policy: New(Power), QueueFactor: 2, RankAll: true}
	// lean is full but under its queue cap; hungry has free cores.
	lean := vec("lean", 5e9, 100, 0, 4, 2)
	hungry := vec("hungry", 9e9, 300, 4, 4, 0)
	got, err := s.Select(estvec.List{hungry, lean})
	if err != nil {
		t.Fatal(err)
	}
	if got.Server != "lean" {
		t.Fatalf("RankAll selected %s, want lean (policy order wins over free cores)", got.Server)
	}
	// Over the cap, lean drops out.
	lean.Set(estvec.TagQueueLen, 8)
	got, _ = s.Select(estvec.List{hungry, lean})
	if got.Server != "hungry" {
		t.Fatalf("over-cap server still elected: %s", got.Server)
	}
	// Everything over cap: min-wait fallback still works.
	hungry.Set(estvec.TagFreeCores, 0).Set(estvec.TagQueueLen, 9).Set(estvec.TagWaitSec, 5)
	lean.Set(estvec.TagWaitSec, 50)
	got, _ = s.Select(estvec.List{hungry, lean})
	if got.Server != "hungry" {
		t.Fatalf("saturated RankAll fallback = %s, want min wait", got.Server)
	}
}

// Property: every policy's Less is a strict weak ordering over
// distinct-named servers: irreflexive and asymmetric.
func TestPropertyPolicyAsymmetry(t *testing.T) {
	policies := []Policy{New(Power), New(Performance), New(GreenPerf), ScorePolicy{Ops: 1e12, Pref: 0.3}}
	f := func(f1, p1, f2, p2 uint16, r1, r2 uint8) bool {
		a := vec("a", float64(f1)+1e9, float64(p1)+1, 1, 2, 0).Set(estvec.TagRandom, float64(r1)/256)
		b := vec("b", float64(f2)+1e9, float64(p2)+1, 1, 2, 0).Set(estvec.TagRandom, float64(r2)/256)
		for _, p := range policies {
			if p.Less(a, a) || p.Less(b, b) {
				return false
			}
			if p.Less(a, b) && p.Less(b, a) {
				return false
			}
			// Totality over distinct names: one direction must hold.
			if !p.Less(a, b) && !p.Less(b, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: ranking with any bundled policy is canonical — sorting a
// list and its reverse yields the same order, because every policy is
// a total order over distinct server names. Inputs come from four
// levels per tag so that ties, and the tie-breaks, are common.
func TestPropertyRankPermutationInvariance(t *testing.T) {
	policies := []Policy{ScorePolicy{Ops: 1e12, Pref: 0.3}}
	for _, k := range []Kind{Random, Power, Performance, GreenPerf, LeastLoaded, Carbon, Renewable} {
		policies = append(policies, New(k))
	}
	f := func(flops, power, draw, wait, grid [6]uint8) bool {
		servers := make(estvec.List, 6)
		for i := range servers {
			level := func(raw [6]uint8) float64 { return float64(raw[i]%4 + 1) }
			servers[i] = vec(string(rune('a'+i)), level(flops)*1e9, level(power)*50, 1, 2, 0).
				Set(estvec.TagRandom, level(draw)/4).
				Set(estvec.TagWaitSec, level(wait)*10).
				Set(estvec.TagCarbonIntensity, level(grid)*100).
				Set(estvec.TagRenewableFrac, level(grid)/4)
		}
		for _, p := range policies {
			a := append(estvec.List(nil), servers...)
			b := make(estvec.List, len(servers))
			for i, v := range servers {
				b[len(b)-1-i] = v
			}
			a.SortStable(p.Less)
			b.SortStable(p.Less)
			for i := range a {
				if a[i].Server != b[i].Server {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the selector never elects an inactive server and never
// elects a server with no free core while some active server has one.
func TestPropertySelectorRespectsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewSelector(New(GreenPerf))
	for trial := 0; trial < 300; trial++ {
		var list estvec.List
		anyFree := false
		for i := 0; i < 1+rng.Intn(8); i++ {
			free := rng.Intn(3)
			active := rng.Intn(4) > 0
			v := vec(string(rune('a'+i)), float64(rng.Intn(10)+1)*1e9,
				float64(rng.Intn(300)+50), free, 4, rng.Intn(5))
			v.SetBool(estvec.TagActive, active)
			if active && free > 0 {
				anyFree = true
			}
			list = append(list, v)
		}
		got, err := s.Select(list)
		if err != nil {
			hasActive := false
			for _, v := range list {
				if v.Bool(estvec.TagActive) {
					hasActive = true
				}
			}
			if hasActive {
				t.Fatalf("trial %d: error with active servers present: %v", trial, err)
			}
			continue
		}
		if !got.Bool(estvec.TagActive) {
			t.Fatalf("trial %d: elected inactive server %s", trial, got.Server)
		}
		if anyFree && got.Value(estvec.TagFreeCores, 0) <= 0 {
			t.Fatalf("trial %d: elected full server %s while free ones existed", trial, got.Server)
		}
	}
}

func BenchmarkSelect(b *testing.B) {
	s := NewSelector(New(GreenPerf))
	var list estvec.List
	for i := 0; i < 64; i++ {
		list = append(list, vec(string(rune('a'+i%26))+string(rune('0'+i/26)),
			float64(i%9+1)*1e9, float64(i%13+1)*25, i%3, 4, i%5))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Select(list)
	}
}
