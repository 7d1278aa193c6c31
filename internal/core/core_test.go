package core

import (
	"math"
	"testing"
	"testing/quick"
)

func srv(name string, flops, pw float64) Server {
	return Server{Name: name, Flops: flops, PowerW: pw, Active: true}
}

func TestGreenPerfRatio(t *testing.T) {
	s := srv("s", 2e9, 100)
	if got := s.GreenPerf(); got != 50e-9 {
		t.Fatalf("GreenPerf = %v, want 5e-8", got)
	}
}

func TestComputationTimeEq4(t *testing.T) {
	active := Server{Name: "a", Flops: 1e9, PowerW: 100, WaitSec: 7, Active: true, BootSec: 100}
	if got := active.ComputationTime(2e9); got != 9 {
		t.Fatalf("active time = %v, want ws+ni/fs = 9", got)
	}
	inactive := Server{Name: "i", Flops: 1e9, PowerW: 100, WaitSec: 7, Active: false, BootSec: 100}
	if got := inactive.ComputationTime(2e9); got != 102 {
		t.Fatalf("inactive time = %v, want bts+ni/fs = 102", got)
	}
}

func TestEnergyConsumptionEq5(t *testing.T) {
	active := Server{Name: "a", Flops: 1e9, PowerW: 100, Active: true, BootSec: 60, BootPowerW: 150}
	if got := active.EnergyConsumption(2e9); got != 200 {
		t.Fatalf("active energy = %v, want cs·ni/fs = 200", got)
	}
	inactive := active
	inactive.Active = false
	if got := inactive.EnergyConsumption(2e9); got != 60*150+200 {
		t.Fatalf("inactive energy = %v, want bts·bcs + cs·ni/fs = 9200", got)
	}
}

func TestScoreExponentLimitsEq7(t *testing.T) {
	// P → −0.9 ⇒ 2/0.1 − 1 = 19 (time dominates).
	if got := ScoreExponent(-0.9); math.Abs(got-19) > 1e-9 {
		t.Fatalf("exponent(-0.9) = %v, want 19", got)
	}
	// P → 0 ⇒ 1 (time × energy).
	if got := ScoreExponent(0); got != 1 {
		t.Fatalf("exponent(0) = %v, want 1", got)
	}
	// P → 0.9 ⇒ 2/1.9 − 1 ≈ 0.0526 (energy dominates).
	if got := ScoreExponent(0.9); math.Abs(got-(2/1.9-1)) > 1e-12 {
		t.Fatalf("exponent(0.9) = %v", got)
	}
	// Clamping: ±1 behave as ±0.9.
	if ScoreExponent(-1) != ScoreExponent(-0.9) || ScoreExponent(1) != ScoreExponent(0.9) {
		t.Fatal("exponent must clamp user preference to ±0.9")
	}
}

func TestScoreAtZeroIsEDP(t *testing.T) {
	s := Server{Name: "s", Flops: 1e9, PowerW: 100, WaitSec: 5, Active: true}
	ops := 3e9
	want := s.ComputationTime(ops) * s.EnergyConsumption(ops)
	if got := s.Score(ops, 0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Score(P=0) = %v, want EDP %v", got, want)
	}
}

func TestScoreOrderingFollowsPreference(t *testing.T) {
	// fast-but-hungry vs slow-but-lean.
	fast := Server{Name: "fast", Flops: 10e9, PowerW: 400, Active: true}
	lean := Server{Name: "lean", Flops: 2e9, PowerW: 60, Active: true}
	ops := 1e12
	// Performance-seeking user: fast server must score lower (better).
	if !(fast.Score(ops, -0.9) < lean.Score(ops, -0.9)) {
		t.Error("P=-0.9 should prefer the fast server")
	}
	// Efficiency-seeking user: per-task energy fast=400*100=4e4,
	// lean=60*500=3e4 → lean wins.
	if !(lean.Score(ops, 0.9) < fast.Score(ops, 0.9)) {
		t.Error("P=+0.9 should prefer the lean server")
	}
}

func TestUserPrefClamped(t *testing.T) {
	if PrefMaxPerformance.Clamped() != -0.9 {
		t.Fatal("-1 should clamp to -0.9")
	}
	if PrefMaxEfficiency.Clamped() != 0.9 {
		t.Fatal("+1 should clamp to +0.9")
	}
	if UserPref(0.5).Clamped() != 0.5 {
		t.Fatal("in-range preference should pass through")
	}
}

func TestProviderPrefEq1(t *testing.T) {
	pp := ProviderPref{Alpha: 0.6, Beta: 0.4}
	// c=0.5, u=0.25 → 0.6*0.5 + 0.4*0.25 = 0.4.
	if got := pp.Eval(0.25, 0.5); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("Eval = %v, want 0.4", got)
	}
	// Cheap electricity and high utilization → max availability.
	if got := pp.Eval(1, 0); got != 1 {
		t.Fatalf("Eval(1,0) = %v, want 1", got)
	}
	// Expensive electricity and idle platform → min availability.
	if got := pp.Eval(0, 1); got != 0 {
		t.Fatalf("Eval(0,1) = %v, want 0", got)
	}
	// Inputs outside [0,1] are clamped.
	if got := pp.Eval(5, -3); got != 1 {
		t.Fatalf("clamped Eval = %v, want 1", got)
	}
}

func TestSelectCandidatesAlgorithm1(t *testing.T) {
	sorted := []Server{ // already GreenPerf-sorted
		srv("a", 10e9, 100),
		srv("b", 8e9, 150),
		srv("c", 5e9, 250),
	}
	// PTotal = 500. pref 0.5 → Prequired = 250 → a (100) + b (150)
	// reaches exactly 250 at the second element: loop adds a, p=100 <
	// 250, adds b, p=250, stop.
	res := SelectCandidates(sorted, 0.5)
	if len(res) != 2 || res[0].Name != "a" || res[1].Name != "b" {
		t.Fatalf("candidates = %v, want [a b]", names(res))
	}
	// pref 0 → empty; pref 1 → all.
	if len(SelectCandidates(sorted, 0)) != 0 {
		t.Fatal("pref 0 should select nothing")
	}
	if len(SelectCandidates(sorted, 1)) != 3 {
		t.Fatal("pref 1 should select everything")
	}
	// Out-of-range prefs clamp.
	if len(SelectCandidates(sorted, 7)) != 3 || len(SelectCandidates(sorted, -1)) != 0 {
		t.Fatal("preference clamping wrong")
	}
	if SelectCandidates(nil, 0.5) != nil {
		t.Fatal("empty input should yield empty output")
	}
}

// Property: Algorithm 1's result is always a prefix of the input,
// covers Prequired, and is minimal (dropping its last element falls
// below Prequired).
func TestPropertySelectCandidates(t *testing.T) {
	f := func(powers []uint8, prefRaw uint8) bool {
		var sorted []Server
		for i, p := range powers {
			sorted = append(sorted, srv(string(rune('a'+i%26))+string(rune('0'+i/26%10)), 1e9, float64(p)+1))
		}
		pref := float64(prefRaw) / 255
		res := SelectCandidates(sorted, pref)
		// Prefix check.
		for i := range res {
			if res[i].Name != sorted[i].Name {
				return false
			}
		}
		pTotal, pRes := 0.0, 0.0
		for _, s := range sorted {
			pTotal += s.PowerW
		}
		for _, s := range res {
			pRes += s.PowerW
		}
		pReq := pref * pTotal
		if pRes < pReq-1e-9 {
			return false // must cover requirement
		}
		if len(res) > 0 && pRes-res[len(res)-1].PowerW >= pReq && pReq > 0 {
			return false // not minimal
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: score is monotone — dominating servers (faster AND leaner,
// same state) always score better for every preference.
func TestPropertyScoreDominance(t *testing.T) {
	f := func(fRaw, pRaw uint16, prefRaw int8) bool {
		flops := float64(fRaw)*1e6 + 1e9
		pw := float64(pRaw)/10 + 50
		better := Server{Name: "b", Flops: flops * 1.5, PowerW: pw * 0.7, Active: true}
		worse := Server{Name: "w", Flops: flops, PowerW: pw, Active: true}
		pref := UserPref(float64(prefRaw) / 127 * 0.9)
		ops := 1e12
		return better.Score(ops, pref) < worse.Score(ops, pref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Eq. 1 stays in [0,1] for all valid weights and inputs.
func TestPropertyProviderPrefBounded(t *testing.T) {
	f := func(aRaw, bRaw, uRaw, cRaw uint8) bool {
		alpha := float64(aRaw) / 255
		beta := (1 - alpha) * float64(bRaw) / 255
		pp := ProviderPref{Alpha: alpha, Beta: beta} // α, β ≥ 0 and α+β ≤ 1
		v := pp.Eval(float64(uRaw)/255, float64(cRaw)/255)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCandidateQuota(t *testing.T) {
	// The paper's §IV-C rules on a 12-node platform.
	cases := []struct {
		frac float64
		want int
	}{
		{0.20, 2},  // T > 25°C → 20% of 12 = 2.4 → 2
		{0.40, 4},  // 1.0 ≥ c > 0.8
		{0.70, 8},  // 0.8 ≥ c > 0.5 → 8.4 → 8
		{1.00, 12}, // c < 0.5
	}
	for _, c := range cases {
		if got := CandidateQuota(12, c.frac, 1); got != c.want {
			t.Errorf("quota(12, %v) = %d, want %d", c.frac, got, c.want)
		}
	}
	if got := CandidateQuota(12, 0.01, 2); got != 2 {
		t.Errorf("minimum floor not applied: %d", got)
	}
	if got := CandidateQuota(12, 5, 0); got != 12 {
		t.Errorf("ceiling not applied: %d", got)
	}
}

func names(servers []Server) []string {
	out := make([]string, len(servers))
	for i, s := range servers {
		out[i] = s.Name
	}
	return out
}

func BenchmarkScore(b *testing.B) {
	s := Server{Name: "s", Flops: 9e9, PowerW: 222, WaitSec: 10, Active: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Score(1.9e12, 0.3)
	}
}
