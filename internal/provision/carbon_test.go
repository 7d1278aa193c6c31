package provision_test

import (
	"testing"

	"greensched/internal/provision"
)

func TestCarbonRecordXMLRoundTrip(t *testing.T) {
	plan := &provision.Plan{Records: []provision.Record{{
		Value: 100, Temperature: 21, Cost: 0.8, Carbon: 412.5,
	}}}
	data, err := plan.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := provision.ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Records[0].Carbon != 412.5 {
		t.Errorf("carbon intensity lost in round trip: %+v", back.Records[0])
	}
	// Records without a reading must omit the element.
	plan2 := &provision.Plan{Records: []provision.Record{{Value: 1, Cost: 1}}}
	data2, err := plan2.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(data2) == "" || containsCarbonTag(string(data2)) {
		t.Errorf("zero carbon must be omitted:\n%s", data2)
	}
}

func containsCarbonTag(s string) bool {
	for i := 0; i+16 <= len(s); i++ {
		if s[i:i+16] == "carbon_intensity" {
			return true
		}
	}
	return false
}
