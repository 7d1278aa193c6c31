package provision

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRecordXMLRoundTripFigure8(t *testing.T) {
	plan := &Plan{Records: []Record{{
		Value:       1385896446,
		Temperature: 23.5,
		Candidates:  8,
		Cost:        0.6,
	}}}
	data, err := plan.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	// The Figure 8 sample schema.
	for _, want := range []string{
		`<timestamp value="1385896446">`,
		`<temperature>23.5</temperature>`,
		`<candidates>8</candidates>`,
		`<electricity_cost>0.6</electricity_cost>`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("marshalled plan missing %q:\n%s", want, s)
		}
	}
	back, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != 1 {
		t.Fatalf("round trip record count = %d", len(back.Records))
	}
	got, want := back.Records[0], plan.Records[0]
	if got.Value != want.Value || got.Temperature != want.Temperature ||
		got.Candidates != want.Candidates || got.Cost != want.Cost {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestParsePlanRejectsGarbage(t *testing.T) {
	if _, err := ParsePlan([]byte("<provisioning><timestamp")); err == nil {
		t.Fatal("malformed XML accepted")
	}
}

// rejectedPlans are well-formed documents whose values no status can
// carry; ParsePlan must refuse each, naming the record's timestamp.
var rejectedPlans = map[string]string{
	"NaN temperature":  `<provisioning><timestamp value="60"><temperature>NaN</temperature><electricity_cost>1</electricity_cost></timestamp></provisioning>`,
	"infinite cost":    `<provisioning><timestamp value="60"><temperature>23</temperature><electricity_cost>+Inf</electricity_cost></timestamp></provisioning>`,
	"-Inf temperature": `<provisioning><timestamp value="60"><temperature>-Inf</temperature><electricity_cost>1</electricity_cost></timestamp></provisioning>`,
	"NaN cost":         `<provisioning><timestamp value="60"><temperature>23</temperature><electricity_cost>NaN</electricity_cost></timestamp></provisioning>`,
	"negative pool":    `<provisioning><timestamp value="60"><temperature>23</temperature><candidates>-3</candidates><electricity_cost>1</electricity_cost></timestamp></provisioning>`,
	"all three":        `<provisioning><timestamp value="60"><temperature>NaN</temperature><candidates>-3</candidates><electricity_cost>+Inf</electricity_cost></timestamp></provisioning>`,
}

func TestParsePlanRejectsUnusableValues(t *testing.T) {
	for name, doc := range rejectedPlans {
		_, err := ParsePlan([]byte(doc))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "timestamp 60") {
			t.Errorf("%s: error %q does not name the timestamp", name, err)
		}
	}
}

// FuzzParsePlan feeds arbitrary bytes to ParsePlan. Whatever it accepts
// must carry finite readings and non-negative pools, and must survive
// a MarshalIndent round trip unchanged.
func FuzzParsePlan(f *testing.F) {
	fig8, err := (&Plan{Records: []Record{{Value: 1385896446, Temperature: 23.5, Candidates: 8, Cost: 0.6}}}).MarshalIndent()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fig8)
	for _, doc := range rejectedPlans {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := ParsePlan(data)
		if err != nil {
			return
		}
		for _, r := range plan.Records {
			for _, v := range []float64{r.Temperature, r.Cost} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted a non-finite reading: %+v", r)
				}
			}
			if r.Candidates < 0 {
				t.Fatalf("accepted a negative pool: %+v", r)
			}
		}
		out, err := plan.MarshalIndent()
		if err != nil {
			t.Fatalf("accepted plan does not marshal: %v", err)
		}
		back, err := ParsePlan(out)
		if err != nil {
			t.Fatalf("marshalled plan does not re-parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(back, plan) {
			t.Fatalf("round trip changed the plan:\n got %+v\nwant %+v", back, plan)
		}
	})
}

func TestStorePutAtWindow(t *testing.T) {
	s := NewStore()
	if _, ok := s.At(100); ok {
		t.Fatal("empty store should have no record")
	}
	s.Put(Record{Value: 100, Cost: 1.0, Temperature: 20})
	s.Put(Record{Value: 300, Cost: 0.5, Temperature: 20})
	s.Put(Record{Value: 200, Cost: 0.8, Temperature: 20})
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	rec, ok := s.At(250)
	if !ok || rec.Value != 200 {
		t.Fatalf("At(250) = %+v, want record 200", rec)
	}
	rec, _ = s.At(300)
	if rec.Value != 300 {
		t.Fatalf("At(300) = %+v", rec)
	}
	if _, ok := s.At(50); ok {
		t.Fatal("At before first record should be !ok")
	}
	w := s.Window(150, 300)
	if len(w) != 2 || w[0].Value != 200 || w[1].Value != 300 {
		t.Fatalf("Window = %+v", w)
	}
	// Replacement.
	s.Put(Record{Value: 200, Cost: 0.7})
	rec, _ = s.At(200)
	if rec.Cost != 0.7 {
		t.Fatal("Put did not replace same-timestamp record")
	}
	if s.Len() != 3 {
		t.Fatal("replacement changed length")
	}
}

func TestStoreSnapshotAndLoad(t *testing.T) {
	s := NewStore()
	s.Put(Record{Value: 2, Cost: 0.5})
	s.Put(Record{Value: 1, Cost: 1.0})
	snap := s.Snapshot()
	if len(snap.Records) != 2 || snap.Records[0].Value != 1 {
		t.Fatalf("Snapshot = %+v", snap.Records)
	}
	snap.Records[0].Cost = 9
	if rec, ok := s.At(1); !ok || rec.Cost != 1.0 {
		t.Fatal("Snapshot shares records with the store")
	}
}

func TestStoreConcurrentReadersWriters(t *testing.T) {
	// The paper specifies a readers-writer lock; hammer it under the
	// race detector.
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Put(Record{Value: int64(i*4 + w), Cost: 0.5})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.At(int64(i))
				s.Window(0, int64(i))
				s.Len()
			}
		}()
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Fatalf("Len = %d, want 800", s.Len())
	}
}

func TestDefaultRulesMatchPaperThresholds(t *testing.T) {
	rules := DefaultRules()
	if err := rules.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		st   Status
		want int // on the paper's 12-node platform
		rule string
	}{
		{Status{Temperature: 26, Cost: 0.3}, 2, "heat"},          // T>25 wins over cheap cost
		{Status{Temperature: 20, Cost: 1.0}, 4, "regular-cost"},  // 40% of 12
		{Status{Temperature: 20, Cost: 0.81}, 4, "regular-cost"}, // just above 0.8
		{Status{Temperature: 20, Cost: 0.8}, 8, "off-peak-1"},    // 70% of 12 = 8.4 → 8
		{Status{Temperature: 20, Cost: 0.6}, 8, "off-peak-1"},
		{Status{Temperature: 20, Cost: 0.5}, 12, "off-peak-2"}, // experiment's Event 2
		{Status{Temperature: 20, Cost: 0.2}, 12, "off-peak-2"},
	}
	for _, c := range cases {
		if got := rules.Quota(c.st, 12, 1); got != c.want {
			t.Errorf("Quota(%+v) = %d, want %d", c.st, got, c.want)
		}
		if got := rules.Match(c.st); got != c.rule {
			t.Errorf("Match(%+v) = %q, want %q", c.st, got, c.rule)
		}
	}
}

func TestRulesQuotaMinimumAndFallback(t *testing.T) {
	rules := DefaultRules()
	// 20% of 12 = 2.4 → 2, floored at MinNodes=2 anyway.
	if got := rules.Quota(Status{Temperature: 30, Cost: 1}, 12, 2); got != 2 {
		t.Fatalf("heat quota = %d, want 2", got)
	}
	// Empty rule set: fail-open.
	if got := (Rules{}).Quota(Status{}, 12, 1); got != 12 {
		t.Fatalf("fallback quota = %d, want 12", got)
	}
	if (Rules{}).Match(Status{}) != "" {
		t.Fatal("empty rules should not match")
	}
}

func TestRulesValidate(t *testing.T) {
	bad := Rules{{Name: "x", Matches: nil, Fraction: 0.5}}
	if bad.Validate() == nil {
		t.Fatal("nil predicate accepted")
	}
	bad = Rules{{Name: "x", Matches: func(Status) bool { return true }, Fraction: 0}}
	if bad.Validate() == nil {
		t.Fatal("zero fraction accepted")
	}
	bad = Rules{{Name: "x", Matches: func(Status) bool { return true }, Fraction: 1.5}}
	if bad.Validate() == nil {
		t.Fatal("fraction above 1 accepted")
	}
}

func TestPlannerValidate(t *testing.T) {
	p := NewPlanner(12, 4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.TotalNodes = 0
	if p.Validate() == nil {
		t.Fatal("zero nodes accepted")
	}
	p = NewPlanner(12, 20)
	if p.Validate() == nil {
		t.Fatal("start above total accepted")
	}
	p = NewPlanner(12, 4)
	p.StepUp = 0
	if p.Validate() == nil {
		t.Fatal("zero step accepted")
	}
	p = NewPlanner(12, 4)
	p.CheckPeriod = 0
	if p.Validate() == nil {
		t.Fatal("zero period accepted")
	}
}

func TestPlannerHoldsSteadyState(t *testing.T) {
	store := NewStore()
	store.Put(Record{Value: 0, Cost: 1.0, Temperature: 20})
	p := NewPlanner(12, 4)
	for now := 0.0; now <= 3000; now += 600 {
		d := p.Check(now, store)
		if d.Pool != 4 || d.Changed != 0 {
			t.Fatalf("steady state drifted at %v: %+v", now, d)
		}
	}
}

func TestPlannerPreRampsForScheduledEvent(t *testing.T) {
	// Event 1 of §IV-C: cost drops to 0.8 at t=3600 (t+60 min).
	// Check period 600 s, lookahead 1200 s: the MA learns about it at
	// t=2400 (t+40), steps at t=3000 (t+50) and t=3600 (t+60) so the
	// pool reaches 8 exactly when the cheap period starts.
	store := NewStore()
	store.Put(Record{Value: 0, Cost: 1.0, Temperature: 20})
	store.Put(Record{Value: 3600, Cost: 0.8, Temperature: 20})
	p := NewPlanner(12, 4)
	pools := map[float64]int{}
	for now := 0.0; now <= 3600; now += 600 {
		d := p.Check(now, store)
		pools[now] = d.Pool
	}
	if pools[2400] != 4 {
		t.Fatalf("pool at t+40min = %d, want 4 (ramp not started yet)", pools[2400])
	}
	if pools[3000] != 6 {
		t.Fatalf("pool at t+50min = %d, want 6 (first progressive step)", pools[3000])
	}
	if pools[3600] != 8 {
		t.Fatalf("pool at t+60min = %d, want 8 (target reached on time)", pools[3600])
	}
}

func TestPlannerRampsToFullPlatform(t *testing.T) {
	// Event 2: cost 0.5 → 100% of nodes, ramped progressively.
	store := NewStore()
	store.Put(Record{Value: 0, Cost: 0.8, Temperature: 20})
	store.Put(Record{Value: 6000, Cost: 0.5, Temperature: 20})
	p := NewPlanner(12, 8)
	var last Decision
	for now := 0.0; now <= 6000; now += 600 {
		last = p.Check(now, store)
	}
	if last.Pool != 12 {
		t.Fatalf("pool = %d, want 12", last.Pool)
	}
}

func TestPlannerUnexpectedHeatDropsInSteps(t *testing.T) {
	// Event 3: temperature rise detected at the check; pool 12 → 2 in
	// 3 steps of StepDown=4 (12→8→4→2 with MinNodes=2).
	store := NewStore()
	store.Put(Record{Value: 0, Cost: 0.5, Temperature: 20})
	p := NewPlanner(12, 12)
	p.MinNodes = 2
	store.Put(Record{Value: 500, Cost: 0.5, Temperature: 27}) // unexpected event
	want := []int{8, 4, 2, 2}
	for i, now := range []float64{600, 1200, 1800, 2400} {
		d := p.Check(now, store)
		if d.Pool != want[i] {
			t.Fatalf("check %d: pool = %d, want %d (decision %+v)", i, d.Pool, want[i], d)
		}
		if i == 0 && d.RuleNow != "heat" {
			t.Fatalf("heat rule not matched: %+v", d)
		}
	}
}

func TestPlannerRecoversAfterHeat(t *testing.T) {
	// Event 4: temperature back in range; pool re-ramps by StepUp per
	// check toward 12.
	store := NewStore()
	store.Put(Record{Value: 0, Cost: 0.5, Temperature: 27})
	p := NewPlanner(12, 2)
	p.MinNodes = 2
	store.Put(Record{Value: 100, Cost: 0.5, Temperature: 22})
	pools := []int{}
	for now := 600.0; now <= 3600; now += 600 {
		pools = append(pools, p.Check(now, store).Pool)
	}
	want := []int{4, 6, 8, 10, 12, 12}
	for i := range want {
		if pools[i] != want[i] {
			t.Fatalf("recovery pools = %v, want %v", pools, want)
		}
	}
}

func TestPlannerNoPreShrink(t *testing.T) {
	// A future cost *increase* must not shrink the pool early.
	store := NewStore()
	store.Put(Record{Value: 0, Cost: 0.5, Temperature: 20})
	store.Put(Record{Value: 1200, Cost: 1.0, Temperature: 20})
	p := NewPlanner(12, 12)
	d := p.Check(0, store)
	if d.Pool != 12 {
		t.Fatalf("planner pre-shrank: %+v", d)
	}
	// At the event, it shrinks.
	d = p.Check(1200, store)
	if d.Pool >= 12 {
		t.Fatalf("planner did not shrink at the event: %+v", d)
	}
}

func TestPlannerEmptyStoreAssumesRegular(t *testing.T) {
	p := NewPlanner(12, 4)
	d := p.Check(0, NewStore())
	if d.TargetNow != 4 { // regular cost → 40% of 12
		t.Fatalf("default status target = %d, want 4", d.TargetNow)
	}
}

func TestCeilDiv(t *testing.T) {
	if ceilDiv(4, 2) != 2 || ceilDiv(5, 2) != 3 || ceilDiv(1, 4) != 1 {
		t.Fatal("ceilDiv wrong")
	}
	if ceilDiv(5, 0) != 5 {
		t.Fatal("ceilDiv with zero divisor should degrade gracefully")
	}
}
