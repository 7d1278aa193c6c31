package provision

import (
	"fmt"

	"greensched/internal/core"
)

// Status is the platform status the rules evaluate: the exploited
// metrics at time t.
type Status struct {
	Temperature float64 // °C
	Cost        float64 // electricity cost ratio in [0,1]
}

// Rule maps a platform status to a candidate-node fraction. Rules are
// evaluated in order; the first match wins — administrators "set
// limits to the number of active nodes in case of out-of-range
// values".
type Rule struct {
	Name     string
	Matches  func(Status) bool
	Fraction float64 // fraction of all nodes made candidates
}

// Rules is an ordered rule set.
type Rules []Rule

// Quota resolves the status to a candidate count over totalNodes,
// flooring at minNodes. Falls back to all nodes if no rule matches
// (fail-open keeps the platform usable under unanticipated statuses).
func (rs Rules) Quota(st Status, totalNodes, minNodes int) int {
	for _, r := range rs {
		if !r.Matches(st) {
			continue
		}
		return core.CandidateQuota(totalNodes, r.Fraction, minNodes)
	}
	return totalNodes
}

// Match returns the first matching rule's name, or "" when none match.
func (rs Rules) Match(st Status) string {
	for _, r := range rs {
		if r.Matches(st) {
			return r.Name
		}
	}
	return ""
}

// Validate rejects rule sets with non-positive fractions or missing
// predicates.
func (rs Rules) Validate() error {
	for i, r := range rs {
		if r.Matches == nil {
			return fmt.Errorf("provision: rule %d (%s) has no predicate", i, r.Name)
		}
		if r.Fraction <= 0 || r.Fraction > 1 {
			return fmt.Errorf("provision: rule %d (%s) has fraction %v outside (0,1]", i, r.Name, r.Fraction)
		}
	}
	return nil
}

// DefaultHeatThreshold is the paper's out-of-range temperature bound.
const DefaultHeatThreshold = 25.0

// DefaultRules returns exactly the §IV-C administrator behaviours:
//
//	if T > 25           → candidate nodes = 20 % of all nodes
//	if 1.0 ≥ c > 0.8    → 40 %
//	if 0.8 ≥ c > 0.5    → 70 %
//	if c < 0.5          → 100 %
//
// The paper's inequalities leave c == 0.5 unassigned; the experiment's
// "Off-peak time 2" state (cost 0.5) uses every available node, so the
// last rule is c ≤ 0.5 → 100 %.
func DefaultRules() Rules {
	return Rules{
		{
			Name:     "heat",
			Matches:  func(s Status) bool { return s.Temperature > DefaultHeatThreshold },
			Fraction: 0.20,
		},
		{
			Name:     "regular-cost",
			Matches:  func(s Status) bool { return s.Cost > 0.8 },
			Fraction: 0.40,
		},
		{
			Name:     "off-peak-1",
			Matches:  func(s Status) bool { return s.Cost > 0.5 },
			Fraction: 0.70,
		},
		{
			Name:     "off-peak-2",
			Matches:  func(s Status) bool { return s.Cost <= 0.5 },
			Fraction: 1.00,
		},
	}
}
