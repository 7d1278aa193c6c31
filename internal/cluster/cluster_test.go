package cluster

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"greensched/internal/power"
)

func TestCatalogSpecsValid(t *testing.T) {
	for _, typ := range Types() {
		spec, ok := Spec(typ)
		if !ok {
			t.Fatalf("Spec(%q) not found", typ)
		}
		spec.Name = typ + "-x"
		if err := spec.Validate(); err != nil {
			t.Errorf("catalog %s invalid: %v", typ, err)
		}
	}
}

func TestCatalogMatchesPaperTables(t *testing.T) {
	// Table I shapes.
	for _, c := range []struct {
		typ   string
		cores int
	}{
		{"orion", 12}, {"taurus", 12}, {"sagittaire", 2},
	} {
		s, _ := Spec(c.typ)
		if s.Cores != c.cores {
			t.Errorf("%s cores = %d, want %d (Table I)", c.typ, s.Cores, c.cores)
		}
	}
	// Table III exact wattages.
	s1, _ := Spec("sim1")
	if s1.IdleW != 190 || s1.PeakW != 230 {
		t.Errorf("sim1 = %v/%v W, want 190/230 (Table III)", s1.IdleW, s1.PeakW)
	}
	s2, _ := Spec("sim2")
	if s2.IdleW != 160 || s2.PeakW != 190 {
		t.Errorf("sim2 = %v/%v W, want 160/190 (Table III)", s2.IdleW, s2.PeakW)
	}
}

func TestCatalogHeterogeneityOrdering(t *testing.T) {
	// The experiments rely on these orderings; pin them.
	taurus, _ := Spec("taurus")
	orion, _ := Spec("orion")
	sag, _ := Spec("sagittaire")
	if !(orion.FlopsPerCore > taurus.FlopsPerCore) {
		t.Error("orion must be the fastest per core (PERFORMANCE prefers it)")
	}
	if !(taurus.GreenPerfStatic() < orion.GreenPerfStatic()) {
		t.Error("taurus must be more energy-efficient than orion")
	}
	if !(sag.GreenPerfStatic() > orion.GreenPerfStatic()) {
		t.Error("sagittaire must be the least energy-efficient")
	}
	if !(sag.FlopsPerCore < taurus.FlopsPerCore) {
		t.Error("sagittaire must be the slowest")
	}
}

func TestUnknownSpec(t *testing.T) {
	if _, ok := Spec("cray"); ok {
		t.Fatal("unknown type should not resolve")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewNodes with unknown type should panic")
		}
	}()
	NewNodes("cray", 2)
}

func TestNewNodesNaming(t *testing.T) {
	nodes := NewNodes("taurus", 3)
	if len(nodes) != 3 {
		t.Fatalf("len = %d, want 3", len(nodes))
	}
	for i, n := range nodes {
		want := "taurus-" + string(rune('0'+i))
		if n.Name != want {
			t.Errorf("node %d name = %q, want %q", i, n.Name, want)
		}
		if n.Cluster != "taurus" {
			t.Errorf("node %d cluster = %q", i, n.Cluster)
		}
	}
}

func TestPlatformConstruction(t *testing.T) {
	p, err := NewPlatform(NewNodes("taurus", 2), NewNodes("orion", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(p.Nodes))
	}
	if p.Cores() != 36 {
		t.Fatalf("cores = %d, want 36", p.Cores())
	}
	got := p.Clusters()
	if len(got) != 2 || got[0] != "taurus" || got[1] != "orion" {
		t.Fatalf("clusters = %v", got)
	}
	if idx := p.ByCluster("taurus"); len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
		t.Fatalf("ByCluster = %v", idx)
	}
	if p.Find("orion-0") != 2 {
		t.Fatalf("Find = %d, want 2", p.Find("orion-0"))
	}
	if p.Find("nope") != -1 {
		t.Fatal("Find of missing node should be -1")
	}
}

func TestPlatformRejectsDuplicatesAndEmpty(t *testing.T) {
	if _, err := NewPlatform(NewNodes("taurus", 1), NewNodes("taurus", 1)); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := NewPlatform(); err == nil {
		t.Fatal("empty platform accepted")
	}
	bad := NewNodes("taurus", 1)
	bad[0].Cores = 0
	if _, err := NewPlatform(bad); err == nil {
		t.Fatal("invalid node accepted")
	}
}

func TestPaperPlatform(t *testing.T) {
	p := PaperPlatform()
	if len(p.Nodes) != 12 {
		t.Fatalf("paper platform has %d nodes, want 12 (Table I)", len(p.Nodes))
	}
	// 4*12 + 4*2 + 4*12 = 104 cores.
	if p.Cores() != 104 {
		t.Fatalf("paper platform cores = %d, want 104", p.Cores())
	}
	cl := p.Clusters()
	want := []string{"orion", "sagittaire", "taurus"}
	if strings.Join(cl, ",") != strings.Join(want, ",") {
		t.Fatalf("clusters = %v, want %v", cl, want)
	}
}

func TestHeterogeneityPlatforms(t *testing.T) {
	if n := len(LowHeterogeneityPlatform().Clusters()); n != 2 {
		t.Fatalf("low-het platform has %d types, want 2 (Fig. 6)", n)
	}
	if n := len(HighHeterogeneityPlatform().Clusters()); n != 4 {
		t.Fatalf("high-het platform has %d types, want 4 (Fig. 7)", n)
	}
}

func TestPlatformAggregates(t *testing.T) {
	p := MustPlatform(NewNodes("sim1", 2))
	if got, want := p.PeakWatts(), 460.0; got != want {
		t.Fatalf("PeakWatts = %v, want %v", got, want)
	}
}

func TestHeterogeneityIndexOrdering(t *testing.T) {
	// A single-type platform is homogeneous.
	homo := MustPlatform(NewNodes("taurus", 4))
	if got := homo.HeterogeneityIndex(); got != 0 {
		t.Fatalf("homogeneous index = %v, want 0", got)
	}
	// The Figure 7 platform must be strictly more heterogeneous than
	// the Figure 6 one — the §IV-B premise.
	low := LowHeterogeneityPlatform().HeterogeneityIndex()
	high := HighHeterogeneityPlatform().HeterogeneityIndex()
	if low <= 0 {
		t.Fatalf("low-het index = %v, want > 0", low)
	}
	if high <= low {
		t.Fatalf("high-het index %v not above low-het %v", high, low)
	}
}

func TestNodeLifecycleEnergy(t *testing.T) {
	spec, _ := Spec("taurus")
	spec.Name = "t0"
	n := NewNode(spec, 0, nil)
	if n.State() != power.On || n.BusyCores() != 0 {
		t.Fatal("fresh node should be on and empty")
	}
	// 10 s idle.
	if err := n.StartTask(10); err != nil {
		t.Fatal(err)
	}
	// 10 s with 1/12 utilization.
	if err := n.FinishTask(20); err != nil {
		t.Fatal(err)
	}
	n.Settle(30) // 10 more idle seconds
	wantIdle := 95.0 * 20
	wantBusy := (95 + 50 + (222-95-50)/12.0) * 10
	if got := n.Energy(); math.Abs(got-(wantIdle+wantBusy)) > 1e-9 {
		t.Fatalf("energy = %v, want %v", got, wantIdle+wantBusy)
	}
}

func TestNodeCapacityEnforced(t *testing.T) {
	spec, _ := Spec("sagittaire") // 2 cores
	spec.Name = "s0"
	n := NewNode(spec, 0, nil)
	if err := n.StartTask(1); err != nil {
		t.Fatal(err)
	}
	if err := n.StartTask(1); err != nil {
		t.Fatal(err)
	}
	if err := n.StartTask(1); err == nil {
		t.Fatal("third task on a 2-core node should fail")
	}
	if n.BusyCores() != 2 || n.Utilization() != 1 {
		t.Fatal("full node accounting wrong")
	}
	if err := n.FinishTask(2); err != nil {
		t.Fatal(err)
	}
	if err := n.FinishTask(2); err != nil {
		t.Fatal(err)
	}
	if err := n.FinishTask(2); err == nil {
		t.Fatal("finishing with no running task should fail")
	}
}

func TestNodeBootCycle(t *testing.T) {
	spec, _ := Spec("taurus")
	spec.Name = "t0"
	n := NewNode(spec, 0, nil)
	if err := n.PowerOff(0); err != nil || n.State() != power.Off {
		t.Fatalf("idle node should power off at once: %v", err)
	}
	if err := n.StartTask(1); err == nil {
		t.Fatal("task on an off node should fail")
	}
	done, err := n.PowerOn(100)
	if err != nil {
		t.Fatal(err)
	}
	if done != 220 {
		t.Fatalf("boot done at %v, want 220", done)
	}
	if n.State() != power.Booting {
		t.Fatal("state should be booting")
	}
	if _, err := n.PowerOn(101); err == nil {
		t.Fatal("double PowerOn should fail")
	}
	if err := n.BootDone(220); err != nil {
		t.Fatal(err)
	}
	if n.State() != power.On {
		t.Fatal("state should be on after boot")
	}
	if err := n.BootDone(221); err == nil {
		t.Fatal("spurious BootDone should fail")
	}
	// Energy: 100 s off @8 W + 120 s boot @170 W.
	want := 100*8.0 + 120*170.0
	if got := n.Energy(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("boot-cycle energy = %v, want %v", got, want)
	}
}

func TestNodePowerOffRules(t *testing.T) {
	spec, _ := Spec("taurus")
	spec.Name = "t0"
	n := NewNode(spec, 0, nil)
	n.StartTask(1)
	if err := n.PowerOff(2); err == nil {
		t.Fatal("powering off a busy node should fail")
	}
	n.FinishTask(3)
	if err := n.PowerOff(4); err != nil {
		t.Fatal(err)
	}
	if err := n.PowerOff(5); err == nil {
		t.Fatal("double PowerOff should fail")
	}
}

func TestNodeCrashKillsTasks(t *testing.T) {
	spec, _ := Spec("taurus")
	spec.Name = "t0"
	n := NewNode(spec, 0, nil)
	n.StartTask(1)
	n.StartTask(1)
	killed := n.Crash(5)
	if killed != 2 {
		t.Fatalf("Crash killed %d, want 2", killed)
	}
	if n.State() != power.Off || n.BusyCores() != 0 {
		t.Fatal("crashed node should be off and empty")
	}
}

func TestNodeMeterSeesTransitions(t *testing.T) {
	spec, _ := Spec("taurus")
	spec.Name = "t0"
	meter := power.NewWattmeter(1)
	n := NewNode(spec, 0, meter)
	n.StartTask(10)
	n.FinishTask(20)
	n.Settle(30)
	if _, n := meter.MeanWindow(0, 30); n != 30 {
		t.Fatalf("meter samples = %d, want 30", n)
	}
	mean, cnt := meter.MeanWindow(10, 19)
	if cnt != 10 {
		t.Fatalf("window count = %d, want 10", cnt)
	}
	wantBusy := 95 + 50 + (222-95-50)/12.0
	if math.Abs(mean-wantBusy) > 1e-9 {
		t.Fatalf("busy-window mean = %v, want %v", mean, wantBusy)
	}
}

func TestBenchmarkNodeNoiseless(t *testing.T) {
	spec, _ := Spec("taurus")
	spec.Name = "t0"
	cal := BenchmarkNode(spec, 9.0e9, 0, nil)
	if math.Abs(cal.TaskSeconds-1.0) > 1e-12 {
		t.Fatalf("TaskSeconds = %v, want 1.0", cal.TaskSeconds)
	}
	if cal.Flops != 9.0e9 {
		t.Fatalf("Flops = %v", cal.Flops)
	}
	wantMean := 95 + 50 + (222-95-50)/12.0
	if math.Abs(cal.MeanWatts-wantMean) > 1e-9 {
		t.Fatalf("MeanWatts = %v, want %v", cal.MeanWatts, wantMean)
	}
	if cal.GreenPerf() <= 0 {
		t.Fatal("GreenPerf should be positive")
	}
}

func TestBenchmarkPlatformJitterBounded(t *testing.T) {
	p := PaperPlatform()
	rng := rand.New(rand.NewSource(3))
	if len(p.Nodes) != 12 {
		t.Fatalf("nodes = %d, want 12", len(p.Nodes))
	}
	for i, spec := range p.Nodes {
		c := BenchmarkNode(spec, 1e12, 0.05, rng)
		if c.Node != spec.Name {
			t.Errorf("cal %d node = %q, want %q", i, c.Node, spec.Name)
		}
		if math.Abs(c.Flops-spec.FlopsPerCore) > 0.05*spec.FlopsPerCore+1 {
			t.Errorf("%s flops jitter out of bounds: %v vs %v", c.Node, c.Flops, spec.FlopsPerCore)
		}
	}
}

func TestCalibrationGreenPerfZeroFlops(t *testing.T) {
	c := Calibration{MeanWatts: 100}
	if c.GreenPerf() != 0 {
		t.Fatal("GreenPerf with zero flops should be 0")
	}
}

// Property: node energy is non-decreasing over any sequence of valid
// operations, and utilization stays within [0,1].
func TestPropertyNodeEnergyMonotone(t *testing.T) {
	f := func(ops []uint8) bool {
		spec, _ := Spec("taurus")
		spec.Name = "t"
		n := NewNode(spec, 0, nil)
		now := 0.0
		lastE := 0.0
		for _, op := range ops {
			now += float64(op%7) + 0.5
			switch op % 3 {
			case 0:
				if n.BusyCores() < n.Spec.Cores {
					n.StartTask(now)
				}
			case 1:
				if n.BusyCores() > 0 {
					n.FinishTask(now)
				}
			default:
				n.Settle(now)
			}
			if u := n.Utilization(); u < 0 || u > 1 {
				return false
			}
			if n.Energy() < lastE {
				return false
			}
			lastE = n.Energy()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNodeTransitions(b *testing.B) {
	spec, _ := Spec("taurus")
	spec.Name = "t"
	n := NewNode(spec, 0, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := float64(i)
		n.StartTask(now)
		n.FinishTask(now + 0.5)
	}
}
