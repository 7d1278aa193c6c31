package experiments

import (
	"bytes"
	"strings"
	"testing"

	"greensched/internal/sched"
)

// fastReplication shrinks the workload so multi-seed runs stay quick
// while preserving the load regime (same burst fraction and rate).
func fastReplication(seeds int) ReplicationConfig {
	cfg := DefaultReplicationConfig()
	cfg.Seeds = seeds
	cfg.Base.ReqsPerCore = 3
	return cfg
}

func TestReplicationValidation(t *testing.T) {
	cfg := fastReplication(1)
	if _, err := RunReplication(cfg); err == nil {
		t.Error("1 seed must be rejected")
	}
	cfg = fastReplication(2)
	cfg.Confidence = 1.2
	if _, err := RunReplication(cfg); err == nil {
		t.Error("confidence outside (0,1) must be rejected")
	}
}

func TestReplicationSeriesShape(t *testing.T) {
	cfg := fastReplication(3)
	res, err := RunReplication(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 3 {
		t.Fatalf("got %d seeds, want 3", len(res.Seeds))
	}
	for _, kind := range sched.Kinds() {
		makespans, energies := res.series(kind, makespanOf), res.series(kind, energyOf)
		if len(makespans) != 3 || len(energies) != 3 {
			t.Errorf("%s: series lengths %d/%d, want 3/3", kind, len(makespans), len(energies))
		}
		for i, e := range energies {
			if e <= 0 {
				t.Errorf("%s seed %d: energy %v not positive", kind, res.Seeds[i], e)
			}
		}
	}
	if len(res.Placements) != 3 {
		t.Error("headline series must have one entry per seed")
	}
}

func TestReplicationSeedsDiffer(t *testing.T) {
	// Different seeds must actually produce different runs — otherwise
	// the CIs silently collapse and mean nothing.
	res, err := RunReplication(fastReplication(3))
	if err != nil {
		t.Fatal(err)
	}
	series := res.series(sched.Random, energyOf)
	if series[0] == series[1] && series[1] == series[2] {
		t.Errorf("RANDOM energy identical across seeds: %v", series)
	}
}

func TestReplicationDeterministicForSameSeeds(t *testing.T) {
	a, err := RunReplication(fastReplication(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReplication(fastReplication(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range sched.Kinds() {
		ea, eb := a.series(kind, energyOf), b.series(kind, energyOf)
		for i := range ea {
			if ea[i] != eb[i] {
				t.Errorf("%s seed %d: %v != %v (not deterministic)", kind, a.Seeds[i], ea[i], eb[i])
			}
		}
	}
}

func TestReplicationPaperShapeHolds(t *testing.T) {
	// At the calibrated load the paper's orderings must hold for every
	// seed, not just the default one: three seeds at a moderate size,
	// and the `greensched replicate -seeds 5` run at full size.
	moderate := DefaultReplicationConfig()
	moderate.Seeds = 3
	moderate.Base.ReqsPerCore = 5
	full := DefaultReplicationConfig()
	full.Seeds = 5
	for _, cfg := range []ReplicationConfig{moderate, full} {
		res, err := RunReplication(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.ShapeViolations() {
			t.Errorf("%d seeds: seed %d: %s", cfg.Seeds, v.Seed, v.Rule)
		}
		gR, _, _, err := res.HeadlineSummaries()
		if err != nil {
			t.Fatal(err)
		}
		if gR.Mean < 0.10 || gR.Mean > 0.40 {
			t.Errorf("%d seeds: mean POWER-vs-RANDOM gain %.3f far from the paper's 0.25 regime", cfg.Seeds, gR.Mean)
		}
	}
}

func TestReplicationSignificance(t *testing.T) {
	res, err := RunReplication(fastReplication(4))
	if err != nil {
		t.Fatal(err)
	}
	vsRandom, _, err := res.EnergySignificance()
	if err != nil {
		t.Fatal(err)
	}
	// POWER saves energy vs RANDOM: negative t (mean(POWER) < mean(RANDOM)).
	if vsRandom.T >= 0 {
		t.Errorf("expected negative t for POWER vs RANDOM energy, got %v", vsRandom.T)
	}
	if vsRandom.P > 0.05 {
		t.Errorf("POWER vs RANDOM separation not significant: p=%v", vsRandom.P)
	}
}

func TestReplicationRender(t *testing.T) {
	res, err := RunReplication(fastReplication(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table II replicated over 3 seeds",
		"POWER energy gain vs RANDOM",
		"Welch t-test",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}
