package budget

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"greensched/internal/core"
	"greensched/internal/estvec"
)

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker(0, 100); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := NewTracker(100, 0); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestTrackerAccounting(t *testing.T) {
	tr, err := NewTracker(1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	tr.Charge(10, 300)
	tr.Charge(20, 200)
	tr.Charge(15, -50) // negative charges ignored
	if tr.Spent() != 500 {
		t.Fatalf("Spent = %v", tr.Spent())
	}
	if tr.Remaining() != 500 {
		t.Fatalf("Remaining = %v", tr.Remaining())
	}
	if tr.Exhausted() {
		t.Fatal("not exhausted yet")
	}
	tr.Charge(30, 600)
	if !tr.Exhausted() || tr.Remaining() != 0 {
		t.Fatal("overspend should exhaust with zero remaining")
	}
}

func TestBurnError(t *testing.T) {
	tr, _ := NewTracker(1000, 100)
	// Halfway through time, nothing spent: 50% behind.
	if got := tr.BurnError(50); math.Abs(got-(-0.5)) > 1e-12 {
		t.Fatalf("BurnError = %v, want -0.5", got)
	}
	tr.Charge(50, 700)
	// Spent 700 vs expected 500: 20% ahead.
	if got := tr.BurnError(50); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("BurnError = %v, want 0.2", got)
	}
	// Clamped time.
	if got := tr.BurnError(1e9); math.Abs(got-(-0.3)) > 1e-12 {
		t.Fatalf("BurnError past horizon = %v, want -0.3", got)
	}
	if got := tr.BurnError(-5); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("BurnError before start = %v, want 0.7", got)
	}
}

func TestTrackerConcurrentCharges(t *testing.T) {
	tr, _ := NewTracker(1e6, 100)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tr.Charge(1, 1)
			}
		}()
	}
	wg.Wait()
	if tr.Spent() != 8000 {
		t.Fatalf("Spent = %v, want 8000", tr.Spent())
	}
}

func TestPreferenceSteering(t *testing.T) {
	tr, _ := NewTracker(1000, 100)
	p := Preference{Tracker: tr, Base: 0}
	// On budget: base preference.
	tr.Charge(50, 500)
	if got := p.At(50); got != 0 {
		t.Fatalf("on-budget preference = %v, want 0", got)
	}
	// 10% over: pushed toward efficiency by gain 5 → +0.5.
	tr.Charge(50, 100)
	if got := p.At(50); math.Abs(float64(got)-0.5) > 1e-12 {
		t.Fatalf("over-budget preference = %v, want 0.5", got)
	}
	// Way over: clamped at +0.9.
	tr.Charge(50, 500)
	if got := p.At(50); got != 0.9 {
		t.Fatalf("far-over preference = %v, want 0.9", got)
	}
}

func TestPreferenceUnderBudget(t *testing.T) {
	tr, _ := NewTracker(1000, 100)
	// Surplus does not change the preference.
	p := Preference{Tracker: tr, Base: 0.2}
	if got := p.At(50); got != 0.2 {
		t.Fatalf("under-budget preference = %v, want base", got)
	}
}

func vec(name string, flops, watts float64) *estvec.Vector {
	return estvec.New(name).
		Set(estvec.TagFlops, flops).
		Set(estvec.TagPowerW, watts).
		SetBool(estvec.TagActive, true)
}

func TestPolicySwitchesWithBudget(t *testing.T) {
	tr, _ := NewTracker(1000, 100)
	now := 0.0
	policy, err := NewPolicy(tr, core.PrefNone, 1e12, func() float64 { return now })
	if err != nil {
		t.Fatal(err)
	}
	fast := vec("fast", 10e9, 400)
	lean := vec("lean", 2e9, 60)
	// Under budget with aggressive steering off and base 0 the EDP
	// ordering applies: fast has EDP 100s*4e4J=4e6, lean 500*3e4=1.5e7
	// → fast first.
	if !policy.Less(fast, lean) {
		t.Fatal("on-budget: EDP should favor fast")
	}
	// Blow the budget: steering pushes to max efficiency → lean first.
	now = 10
	tr.Charge(10, 900)
	if !policy.Less(lean, fast) {
		t.Fatal("over-budget: steering should favor lean")
	}
	if policy.Name() != "BUDGET" {
		t.Fatal("name wrong")
	}
}

func TestNewPolicyValidation(t *testing.T) {
	tr, _ := NewTracker(1, 1)
	if _, err := NewPolicy(nil, 0, 1, func() float64 { return 0 }); err == nil {
		t.Fatal("nil tracker accepted")
	}
	if _, err := NewPolicy(tr, 0, 1, nil); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := NewPolicy(tr, 0, 0, func() float64 { return 0 }); err == nil {
		t.Fatal("zero ops accepted")
	}
}

func TestEnforcer(t *testing.T) {
	tr, _ := NewTracker(100, 10)
	e := Enforcer{Tracker: tr}
	if err := e.Admit(); err != nil {
		t.Fatal(err)
	}
	tr.Charge(5, 100)
	if err := e.Admit(); err == nil {
		t.Fatal("exhausted budget admitted a request")
	}
}

// Property: BurnError is always within [-1, 1] and monotone in spend.
func TestPropertyBurnErrorBounded(t *testing.T) {
	f := func(spendRaw, nowRaw uint16) bool {
		tr, _ := NewTracker(1000, 100)
		now := float64(nowRaw % 200)
		tr.Charge(now, float64(spendRaw))
		e := tr.BurnError(now)
		if e < -1 || e > 1 {
			return false
		}
		before := e
		tr.Charge(now, 10)
		return tr.BurnError(now) >= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the steered preference is always a valid clamped pref.
func TestPropertyPreferenceClamped(t *testing.T) {
	f := func(spendRaw, nowRaw uint16, baseRaw int8) bool {
		tr, _ := NewTracker(1000, 100)
		now := float64(nowRaw % 100)
		tr.Charge(now, float64(spendRaw))
		p := Preference{Tracker: tr, Base: core.UserPref(float64(baseRaw) / 127)}
		got := float64(p.At(now))
		return got >= -core.ClampLimit-1e-12 && got <= core.ClampLimit+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPolicyLess(b *testing.B) {
	tr, _ := NewTracker(1e9, 1e4)
	policy, _ := NewPolicy(tr, 0, 1e12, func() float64 { return 100 })
	fast := vec("fast", 10e9, 400)
	lean := vec("lean", 2e9, 60)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		policy.Less(fast, lean)
	}
}
