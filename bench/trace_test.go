package main

import (
	"math"
	"testing"
)

func TestCoveredCountsSharedTimeOnce(t *testing.T) {
	sp := func(start, dur int64) *spanRec { return &spanRec{start: start, dur: dur} }
	for _, c := range []struct {
		name  string
		spans []*spanRec
		want  int64
	}{
		{"none", nil, 0},
		{"one", []*spanRec{sp(10, 5)}, 5},
		{"disjoint", []*spanRec{sp(0, 5), sp(10, 5)}, 10},
		{"overlapping", []*spanRec{sp(0, 10), sp(5, 10)}, 15},
		{"nested", []*spanRec{sp(0, 20), sp(5, 5)}, 20},
		{"unsorted parallel fan-out", []*spanRec{sp(7, 4), sp(0, 8), sp(1, 3), sp(20, 1)}, 12},
	} {
		if got := covered(c.spans); got != c.want {
			t.Errorf("%s: covered %d, want %d", c.name, got, c.want)
		}
	}
}

// One request with a two-child parallel fan-out over a wire: the parts
// must sum to the whole, and the wire is the client span minus the
// server span under it.
func TestAnalyseLiveSplitsARequest(t *testing.T) {
	us := func(v float64) int64 { return int64(v * 1e3) }
	spans := []spanRec{
		{trace: 7, id: 1, layer: layerMaster, name: "do", start: 0, dur: us(100)},
		{trace: 7, id: 2, parent: 1, layer: layerInterceptor, name: "sla.OnSubmit", start: us(1), dur: us(4)},
		{trace: 7, id: 3, parent: 1, layer: layerInterceptor, name: "sla.OnComplete", start: us(90), dur: us(2)},
		{trace: 7, id: 4, parent: 1, layer: layerAgent, name: "estimate:lean", start: us(10), dur: us(20)},
		{trace: 7, id: 5, parent: 1, layer: layerAgent, name: "estimate:hungry", start: us(15), dur: us(25)},
		{trace: 7, id: 6, parent: 4, layer: layerSED, name: "estimate:lean", start: us(12), dur: us(5)},
		{trace: 7, id: 7, parent: 5, layer: layerSED, name: "estimate:hungry", start: us(20), dur: us(7)},
		{trace: 7, id: 8, parent: 1, layer: layerDispatch, name: "solve:lean", start: us(45), dur: us(40)},
		{trace: 7, id: 9, parent: 8, layer: layerSED, name: "solve:lean", start: us(50), dur: us(30)},
		{id: 10, layer: layerPowerClient, name: "read:lean", start: us(51), dur: us(8)},
		{id: 11, layer: layerPowerServer, name: "read:lean", start: us(53), dur: us(2)},
	}
	b := analyseLive(spans, true)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if b.requests != 1 {
		t.Fatalf("%d requests analysed", b.requests)
	}
	near("do", b.doUs, 100)
	near("sla", b.interceptors["sla"], 6)
	near("estimate (union of 10..30 and 15..40)", b.estimateUs, 30)
	near("dispatch", b.dispatchUs, 40)
	near("self", b.selfUs, 100-6-30-40)
	near("parts sum to the whole", b.interceptors["sla"]+b.estimateUs+b.dispatchUs+b.selfUs, b.doUs)
	near("sed estimate per call", b.sedEstUs, 6)
	near("sed solve", b.sedSolveUs, 30)
	near("estimate wire", b.estWireUs, ((20-5)+(25-7))/2.0)
	near("solve wire", b.solveWireUs, 10)
	near("client read", b.clientReadUs, 8)
	near("server read", b.serverReadUs, 2)

	if local := analyseLive(spans, false); local.estWireUs != 0 || local.solveWireUs != 0 {
		t.Errorf("in-process fleet reported a wire: %+v", local)
	}
}

// Recording stays off until the measured window opens, and the window
// starts its counts from zero.
func TestRecorderWindow(t *testing.T) {
	rec := newRecorder(2)
	rec.on.Store(false)
	rec.powerReads.Add(9)
	if rec.sampled(2) {
		t.Error("sampled before the window opened")
	}
	rec.start()
	if rec.powerReads.Load() != 0 {
		t.Error("warm-up counts survived into the window")
	}
	if !rec.sampled(2) || rec.sampled(3) {
		t.Error("1-in-2 sampling keeps the wrong requests")
	}
	for i := 0; i < spanCap+5; i++ {
		rec.add(spanRec{id: uint64(i)})
	}
	if spans, dropped := rec.recorded(); len(spans) != spanCap || dropped != 5 {
		t.Errorf("%d spans kept, %d dropped; want %d, 5", len(spans), dropped, spanCap)
	}
}
