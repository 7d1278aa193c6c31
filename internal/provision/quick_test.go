package provision

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// TestPlanXMLRoundTripQuick: any set of sane records must survive
// Store → Snapshot → XML → ParsePlan bit-exactly. The plan
// file is the §IV-C coordination point between the monitoring system
// and the Master Agent, so codec fidelity is an invariant, not a
// convenience.
func TestPlanXMLRoundTripQuick(t *testing.T) {
	f := func(stamps []int64, temps []float64, costs []float64, cands []uint8) bool {
		n := len(stamps)
		for _, s := range [][]int{{len(temps)}, {len(costs)}, {len(cands)}} {
			if s[0] < n {
				n = s[0]
			}
		}
		if n == 0 {
			return true
		}
		store := NewStore()
		seen := make(map[int64]bool)
		want := 0
		for i := 0; i < n; i++ {
			stamp := stamps[i] % 1e9
			if stamp < 0 {
				stamp = -stamp
			}
			temp := math.Mod(temps[i], 60)
			cost := math.Abs(math.Mod(costs[i], 1))
			if math.IsNaN(temp) || math.IsNaN(cost) {
				continue
			}
			if !seen[stamp] {
				want++ // Put overwrites same-stamp records
			}
			seen[stamp] = true
			store.Put(Record{
				Value:       stamp,
				Temperature: temp,
				Cost:        cost,
				Candidates:  int(cands[i]),
				Unexpected:  cands[i]%2 == 0,
			})
		}
		if want == 0 {
			return true
		}
		data, err := store.Snapshot().MarshalIndent()
		if err != nil {
			return false
		}
		back, err := ParsePlan(data)
		if err != nil {
			return false
		}
		if len(back.Records) != want {
			return false
		}
		// Records come back sorted by timestamp with all fields intact.
		if !sort.SliceIsSorted(back.Records, func(i, j int) bool {
			return back.Records[i].Value < back.Records[j].Value
		}) {
			return false
		}
		for _, rec := range back.Records {
			got, ok := store.At(rec.Value)
			if !ok || got.Temperature != rec.Temperature ||
				got.Cost != rec.Cost || got.Candidates != rec.Candidates ||
				got.Unexpected != rec.Unexpected {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
