package core

import (
	"math"
	"testing"
	"testing/quick"
)

func srv(name string, flops, pw float64) Server {
	return Server{Name: name, Flops: flops, PowerW: pw, Active: true}
}

func TestValidate(t *testing.T) {
	good := Server{Name: "s", Flops: 1e9, PowerW: 100}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Server{
		{Flops: 1e9, PowerW: 100},                          // empty name
		{Name: "s", Flops: 0, PowerW: 100},                 // no flops
		{Name: "s", Flops: 1e9, PowerW: 0},                 // no power
		{Name: "s", Flops: 1e9, PowerW: 1, BootSec: -1},    // negative boot
		{Name: "s", Flops: 1e9, PowerW: 1, WaitSec: -3},    // negative wait
		{Name: "s", Flops: 1e9, PowerW: 1, BootPowerW: -1}, // negative boot power
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid server accepted: %+v", i, c)
		}
	}
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
	if err := pp.Validate(); err != nil {
		t.Fatal(err)
	}
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

func TestProviderPrefValidate(t *testing.T) {
	if err := (ProviderPref{Alpha: -0.1, Beta: 0.5}).Validate(); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if err := (ProviderPref{Alpha: 0.8, Beta: 0.8}).Validate(); err == nil {
		t.Fatal("weights summing above 1 accepted")
	}
	if err := DefaultProviderPref.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRankCriteria(t *testing.T) {
	servers := []Server{
		srv("hungry-fast", 10e9, 500), // gp = 50e-9
		srv("lean-slow", 2e9, 60),     // gp = 30e-9
		srv("balanced", 5e9, 200),     // gp = 40e-9
	}
	gp := Rank(servers, ByGreenPerf())
	if gp[0].Name != "lean-slow" || gp[1].Name != "balanced" || gp[2].Name != "hungry-fast" {
		t.Fatalf("GreenPerf rank = %v", names(gp))
	}
	// Rank must not mutate its input.
	if servers[0].Name != "hungry-fast" {
		t.Fatal("Rank mutated input slice")
	}
}

func TestRankTiebreaks(t *testing.T) {
	a := srv("a", 5e9, 100)
	b := srv("b", 10e9, 200) // same GreenPerf, faster
	got := Rank([]Server{a, b}, ByGreenPerf())
	if got[0].Name != "b" {
		t.Fatal("GreenPerf tie must break by performance descending")
	}
	c := srv("c", 10e9, 200)
	got = Rank([]Server{c, b}, ByGreenPerf())
	if got[0].Name != "b" {
		t.Fatal("full tie must break by name")
	}
}

func TestByScoreCriterion(t *testing.T) {
	fast := Server{Name: "fast", Flops: 10e9, PowerW: 400, Active: true}
	lean := Server{Name: "lean", Flops: 2e9, PowerW: 60, Active: true}
	c := ByScore(1e12, -0.9)
	got := Rank([]Server{lean, fast}, c)
	if got[0].Name != "fast" {
		t.Fatal("score rank with P=-0.9 should put fast first")
	}
	c = ByScore(1e12, 0.9)
	got = Rank([]Server{fast, lean}, c)
	if got[0].Name != "lean" {
		t.Fatal("score rank with P=+0.9 should put lean first")
	}
	if ByScore(1, 0.5).Name() == "" || ByGreenPerf().Name() != "GREENPERF" {
		t.Fatal("criterion names wrong")
	}
}

func TestFigure1Example(t *testing.T) {
	// Figure 1: 5 servers, 7 tasks; most energy-efficient servers get
	// priority, S0 being the best under GreenPerf.
	servers := []Server{
		srv("S0", 10e9, 100), // gp 10e-9 best
		srv("S1", 8e9, 120),  // gp 15e-9
		srv("S2", 6e9, 150),  // gp 25e-9
		srv("S3", 5e9, 200),  // gp 40e-9
		srv("S4", 4e9, 300),  // gp 75e-9
	}
	slots := map[string]int{"S0": 2, "S1": 2, "S2": 1, "S3": 1, "S4": 1}
	got := PlaceGreedy(servers, ByGreenPerf(), 7, slots)
	if len(got) != 7 {
		t.Fatalf("placed %d tasks, want 7", len(got))
	}
	counts := map[string]int{}
	for _, a := range got {
		counts[a.Server]++
	}
	if counts["S0"] != 2 || counts["S1"] != 2 {
		t.Fatalf("best servers should fill first: %v", counts)
	}
	// First two tasks land on S0 (the best server).
	if got[0].Server != "S0" || got[1].Server != "S0" {
		t.Fatalf("tasks 0-1 should go to S0: %+v", got[:2])
	}
	// All slots (7 total) used.
	for s, c := range counts {
		if c > slots[s] {
			t.Fatalf("server %s overloaded: %d > %d", s, c, slots[s])
		}
	}
}

func TestPlaceGreedyMoreTasksThanSlots(t *testing.T) {
	servers := []Server{srv("a", 1e9, 10)}
	got := PlaceGreedy(servers, ByGreenPerf(), 5, map[string]int{"a": 2})
	if len(got) != 2 {
		t.Fatalf("placed %d, want 2 (capacity exhausted)", len(got))
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
		pp := ProviderPref{Alpha: alpha, Beta: beta}
		if pp.Validate() != nil {
			return false
		}
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

// Property: Rank output is a permutation of its input and invariant to
// input order (total orders make ranking canonical).
func TestPropertyRankPermutationInvariance(t *testing.T) {
	f := func(flopsRaw, powerRaw [6]uint16, shuffle uint8) bool {
		servers := make([]Server, 6)
		for i := range servers {
			servers[i] = srv(string(rune('a'+i)), float64(flopsRaw[i])+1e9, float64(powerRaw[i])+1)
		}
		shuffled := append([]Server(nil), servers...)
		// Deterministic pseudo-shuffle from the seed byte.
		for i := range shuffled {
			j := (i + int(shuffle)) % len(shuffled)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		for _, c := range []Criterion{ByGreenPerf(), ByScore(1e12, 0.3)} {
			a := Rank(servers, c)
			b := Rank(shuffled, c)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i].Name != b[i].Name {
					return false
				}
			}
			// Permutation check: same multiset of names.
			seen := map[string]int{}
			for _, s := range a {
				seen[s.Name]++
			}
			for _, s := range servers {
				seen[s.Name]--
			}
			for _, v := range seen {
				if v != 0 {
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

func names(servers []Server) []string {
	out := make([]string, len(servers))
	for i, s := range servers {
		out[i] = s.Name
	}
	return out
}

func BenchmarkRankGreenPerf(b *testing.B) {
	servers := make([]Server, 128)
	for i := range servers {
		servers[i] = srv(string(rune('a'+i%26))+string(rune('0'+i/26)), float64(i%17+1)*1e9, float64(i%13+1)*25)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Rank(servers, ByGreenPerf())
	}
}

func BenchmarkScore(b *testing.B) {
	s := Server{Name: "s", Flops: 9e9, PowerW: 222, WaitSec: 10, Active: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Score(1.9e12, 0.3)
	}
}
