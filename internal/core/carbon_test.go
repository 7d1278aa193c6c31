package core

import "testing"

func TestCarbonPerfWeightsIntensity(t *testing.T) {
	// Same watts and flops, different grids: the cleaner site wins.
	clean := Server{Name: "clean", Flops: 5e9, PowerW: 200, CarbonIntensity: 50, Active: true}
	dirty := Server{Name: "dirty", Flops: 5e9, PowerW: 200, CarbonIntensity: 500, Active: true}
	if clean.CarbonPerf() >= dirty.CarbonPerf() {
		t.Errorf("clean %v must beat dirty %v", clean.CarbonPerf(), dirty.CarbonPerf())
	}
}

func TestCarbonPerfTradesWattsAgainstGrid(t *testing.T) {
	// A hungrier server on a 10× cleaner grid emits less per flop.
	hungryClean := Server{Name: "hc", Flops: 5e9, PowerW: 300, CarbonIntensity: 50, Active: true}
	leanDirty := Server{Name: "ld", Flops: 5e9, PowerW: 200, CarbonIntensity: 500, Active: true}
	if leanDirty.GreenPerf() >= hungryClean.GreenPerf() {
		t.Fatal("precondition: leanDirty must win on GreenPerf")
	}
	if hungryClean.CarbonPerf() >= leanDirty.CarbonPerf() {
		t.Error("CarbonPerf must prefer the cleaner grid despite higher watts")
	}
}

func TestCarbonPerfUnknownIntensityDegradesToGreenPerf(t *testing.T) {
	a := Server{Name: "a", Flops: 5e9, PowerW: 100}
	b := Server{Name: "b", Flops: 5e9, PowerW: 300}
	// Both unknown: ordering equals GreenPerf's.
	if a.CarbonPerf() >= b.CarbonPerf() {
		t.Errorf("unknown intensities must fall back to GreenPerf: %v vs %v", a.CarbonPerf(), b.CarbonPerf())
	}
	if got, want := a.CarbonPerf(), a.GreenPerf(); got != want {
		t.Errorf("neutral intensity CarbonPerf %v != GreenPerf %v", got, want)
	}
}
