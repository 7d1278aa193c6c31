package sched

import (
	"testing"

	"greensched/internal/estvec"
)

func carbonVec(name string, flops, powerW, gPerKWh float64) *estvec.Vector {
	v := estvec.New(name).
		Set(estvec.TagFlops, flops).
		Set(estvec.TagPowerW, powerW).
		SetBool(estvec.TagActive, true).
		SetBool(estvec.TagKnown, true)
	if gPerKWh > 0 {
		v.Set(estvec.TagCarbonIntensity, gPerKWh)
	}
	return v
}

func TestCarbonPolicyPrefersCleanerGrid(t *testing.T) {
	p := New(Carbon)
	if p.Name() != "CARBON" {
		t.Fatalf("policy name %q", p.Name())
	}
	hungryClean := carbonVec("hungry-clean", 5e9, 300, 50)
	leanDirty := carbonVec("lean-dirty", 5e9, 200, 500)
	if !p.Less(hungryClean, leanDirty) {
		t.Error("the cleaner site must rank first despite higher watts")
	}
	if p.Less(leanDirty, hungryClean) {
		t.Error("ordering must be asymmetric")
	}
}

func TestCarbonPolicySingleSiteMatchesGreenPerf(t *testing.T) {
	p := New(Carbon)
	gp := New(GreenPerf)
	a := carbonVec("a", 9e9, 220, 300).Set(estvec.TagGreenPerf, 220.0/9e9)
	b := carbonVec("b", 4.6e9, 250, 300).Set(estvec.TagGreenPerf, 250.0/4.6e9)
	if p.Less(a, b) != gp.Less(a, b) || p.Less(b, a) != gp.Less(b, a) {
		t.Error("equal intensities must reproduce the GREENPERF ordering")
	}
}

func TestCarbonPolicyLearningPhaseRanksLast(t *testing.T) {
	p := New(Carbon)
	known := carbonVec("known", 5e9, 200, 100)
	novice := estvec.New("novice").SetBool(estvec.TagActive, true) // no estimates yet
	if !p.Less(known, novice) {
		t.Error("server with estimates must rank before a novice")
	}
	if p.Less(novice, known) {
		t.Error("novice must not outrank a measured server")
	}
}

func TestCarbonPolicyTieBreaks(t *testing.T) {
	// Equal grams/flop and watts/flop: faster node first, then name.
	p := New(Carbon)
	slow := carbonVec("slow", 2e9, 100, 100).Set(estvec.TagGreenPerf, 100/2e9)
	fast := carbonVec("fast", 4e9, 200, 100).Set(estvec.TagGreenPerf, 200/4e9)
	if !p.Less(fast, slow) || p.Less(slow, fast) {
		t.Error("performance must break carbon ties")
	}
	twin := carbonVec("twin", 4e9, 200, 100).Set(estvec.TagGreenPerf, 200/4e9)
	if !p.Less(fast, twin) {
		t.Error("full tie must break by name")
	}
}

// TestCarbonPolicyUnmeteredSiteFailsSafe: a server whose grid feed is
// down (no intensity tag) must not look infinitely clean — it ranks
// after every metered server, even a very dirty one.
func TestCarbonPolicyUnmeteredSiteFailsSafe(t *testing.T) {
	p := New(Carbon)
	metered := carbonVec("metered-dirty", 5e9, 200, 550)
	unmetered := carbonVec("unmetered", 5e9, 200, 0) // no tag set
	if !p.Less(metered, unmetered) || p.Less(unmetered, metered) {
		t.Error("unmetered server must rank after the metered one")
	}
}

func TestServerFromVectorCarriesCarbonIntensity(t *testing.T) {
	v := carbonVec("x", 5e9, 200, 321)
	srv, ok := ServerFromVector(v)
	if !ok {
		t.Fatal("vector with flops+power must convert")
	}
	if srv.CarbonIntensity != 321 {
		t.Errorf("CarbonIntensity = %v, want 321", srv.CarbonIntensity)
	}
	srv2, _ := ServerFromVector(carbonVec("y", 5e9, 200, 0))
	if srv2.CarbonIntensity != 0 {
		t.Errorf("missing tag must read as 0, got %v", srv2.CarbonIntensity)
	}
}
