package forecast

import (
	"testing"
)

func TestTariffCostAt(t *testing.T) {
	tf := PaperTariff()
	if err := tf.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		hour float64
		want float64
	}{
		{9, 1.0}, {21.9, 1.0}, // regular
		{22, 0.8}, {23.5, 0.8}, {1, 0.8}, // off-peak 1 wraps midnight
		{2, 0.5}, {7.9, 0.5}, // off-peak 2
		{8, 1.0},
		{33, 1.0}, // 33h = 9h next day
		{-2, 0.8}, // -2h = 22h
	}
	for _, c := range cases {
		if got := tf.CostAt(c.hour); got != c.want {
			t.Errorf("CostAt(%v) = %v, want %v", c.hour, got, c.want)
		}
	}
	// Uncovered hours default to regular.
	sparse := Tariff{{StartHour: 0, EndHour: 1, Cost: 0.5}}
	if sparse.CostAt(12) != 1.0 {
		t.Fatal("uncovered hour should default to 1.0")
	}
}

func TestTariffValidate(t *testing.T) {
	bad := []Tariff{
		{},
		{{StartHour: -1, EndHour: 2, Cost: 0.5}},
		{{StartHour: 1, EndHour: 25, Cost: 0.5}},
		{{StartHour: 1, EndHour: 2, Cost: 1.5}},
	}
	for i, tf := range bad {
		if tf.Validate() == nil {
			t.Errorf("case %d: invalid tariff accepted", i)
		}
	}
}

func TestPlanRecordsFromTariff(t *testing.T) {
	tf := PaperTariff()
	// Two days starting at midnight.
	recs, err := tf.PlanRecords(0, 2*86400, 22)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 6 {
		t.Fatalf("only %d records for two days of three windows", len(recs))
	}
	// First record: midnight is off-peak 1 (22-02h window).
	if recs[0].Cost != 0.8 || recs[0].Value != 0 {
		t.Fatalf("first record = %+v", recs[0])
	}
	// Consecutive records always change cost.
	for i := 1; i < len(recs); i++ {
		if recs[i].Cost == recs[i-1].Cost {
			t.Fatalf("redundant record %d: %+v", i, recs[i])
		}
		if recs[i].Value <= recs[i-1].Value {
			t.Fatal("records out of order")
		}
	}
	// Temperature propagated; records are scheduled (not unexpected).
	for _, r := range recs {
		if r.Temperature != 22 || r.Unexpected {
			t.Fatalf("record %+v", r)
		}
	}
	if _, err := tf.PlanRecords(10, 10, 22); err == nil {
		t.Fatal("empty horizon accepted")
	}
	if _, err := (Tariff{}).PlanRecords(0, 100, 22); err == nil {
		t.Fatal("invalid tariff accepted")
	}
}
