// Package provision implements the paper's provisioning planning
// (§III-C, §IV-C): a shared XML plan of platform-status records
// protected by a readers-writer lock, administrator threshold rules
// mapping electricity cost and temperature to a candidate-node quota,
// and a planner that polls the plan every check period, looks ahead at
// scheduled events, and ramps the candidate pool progressively.
package provision

import (
	"encoding/xml"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Record is one <timestamp> sample of the provisioning plan, exactly
// the Figure 8 schema:
//
//	<timestamp value="1385896446">
//	    <temperature>23.5</temperature>
//	    <candidates>8</candidates>
//	    <electricity_cost>0.6</electricity_cost>
//	</timestamp>
type Record struct {
	XMLName     xml.Name `xml:"timestamp"`
	Value       int64    `xml:"value,attr"`
	Temperature float64  `xml:"temperature"`
	Candidates  int      `xml:"candidates"`
	Cost        float64  `xml:"electricity_cost"`

	// Unexpected marks measurements that only become visible when
	// they occur (the §IV-C heat events), as opposed to scheduled
	// events (energy-price changes) the planner may anticipate
	// through its lookahead window.
	Unexpected bool `xml:"unexpected,attr,omitempty"`
}

// Plan is the full provisioning-planning document.
type Plan struct {
	XMLName xml.Name `xml:"provisioning"`
	Records []Record `xml:"timestamp"`
}

// MarshalIndent renders the plan as indented XML.
func (p *Plan) MarshalIndent() ([]byte, error) {
	return xml.MarshalIndent(p, "", "    ")
}

// ParsePlan decodes a plan document. It rejects records no status can
// carry: a non-finite temperature or cost (the rules would silently
// skip a NaN reading) or a negative candidate count.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := xml.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("provision: parsing plan: %w", err)
	}
	for _, r := range p.Records {
		for _, v := range []float64{r.Temperature, r.Cost} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("provision: record at timestamp %d has a non-finite reading %v", r.Value, v)
			}
		}
		if r.Candidates < 0 {
			return nil, fmt.Errorf("provision: record at timestamp %d has %d candidates", r.Value, r.Candidates)
		}
	}
	return &p, nil
}

// Store is the shared provisioning planning: "a shared XML file using
// a readers-writers lock that refers to a specific time-stamp". The
// scheduler reads it at every check; monitoring systems, energy
// providers and administrators write future records into it.
type Store struct {
	mu      sync.RWMutex
	records []Record // sorted by Value ascending
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Put inserts or replaces the record for its timestamp.
func (s *Store) Put(r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.records), func(i int) bool { return s.records[i].Value >= r.Value })
	if i < len(s.records) && s.records[i].Value == r.Value {
		s.records[i] = r
		return
	}
	s.records = append(s.records, Record{})
	copy(s.records[i+1:], s.records[i:])
	s.records[i] = r
}

// At returns the record in force at time t: the latest record with
// Value <= t. ok is false before the first record.
func (s *Store) At(t int64) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := sort.Search(len(s.records), func(i int) bool { return s.records[i].Value > t })
	if i == 0 {
		return Record{}, false
	}
	return s.records[i-1], true
}

// Window returns copies of the records with Value in [from, to],
// oldest first — what the Master Agent reads when it checks the
// platform status "with the ability to get information about the
// scheduled events occurring at t + 20".
func (s *Store) Window(from, to int64) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo := sort.Search(len(s.records), func(i int) bool { return s.records[i].Value >= from })
	hi := sort.Search(len(s.records), func(i int) bool { return s.records[i].Value > to })
	out := make([]Record, hi-lo)
	copy(out, s.records[lo:hi])
	return out
}

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

// Snapshot returns the whole plan document (copy), oldest first.
func (s *Store) Snapshot() *Plan {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Record, len(s.records))
	copy(out, s.records)
	return &Plan{Records: out}
}
