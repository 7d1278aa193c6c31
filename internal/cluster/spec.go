// Package cluster models the physical platform: node specifications,
// clusters of identical nodes, and whole platforms, together with the
// runtime state machine of a node (off / booting / on, busy cores).
//
// The catalog reproduces the paper's Table I infrastructure (Orion,
// Sagittaire and Taurus clusters of GRID'5000 Lyon) and the Table III
// simulated clusters (Sim1, Sim2). Absolute wattages are calibrated
// from published GRID'5000 node characteristics; the scheduler under
// study only ever consumes the (power, performance) pairs, so the
// heterogeneity ratios — not the absolute values — drive every result.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"greensched/internal/power"
)

// NodeSpec is the static description of one physical node.
type NodeSpec struct {
	Name    string // unique node name, e.g. "taurus-3"
	Cluster string // cluster the node belongs to, e.g. "taurus"

	Cores        int     // schedulable cores (the paper: one task per core)
	FlopsPerCore float64 // sustained flop/s of one core

	IdleW       power.Watts // draw when on and idle
	PeakW       power.Watts // draw with all cores busy
	ActivationW power.Watts // first-busy-core step (package/uncore wake-up)
	BootW       power.Watts // draw during boot (bcs in Eq. 5)
	OffW        power.Watts // residual draw when off

	BootSec float64 // boot duration in seconds (bts in Eq. 4/5)
}

// Validate reports a descriptive error for inconsistent specs.
func (s NodeSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("cluster: node with empty name")
	}
	if s.Cores <= 0 {
		return fmt.Errorf("cluster: node %s has %d cores", s.Name, s.Cores)
	}
	if s.FlopsPerCore <= 0 {
		return fmt.Errorf("cluster: node %s has non-positive flops/core", s.Name)
	}
	if s.BootSec < 0 {
		return fmt.Errorf("cluster: node %s has negative boot time", s.Name)
	}
	return s.PowerModel().Validate()
}

// PowerModel returns the node's power model.
func (s NodeSpec) PowerModel() power.LinearModel {
	return power.LinearModel{
		IdleW: s.IdleW, PeakW: s.PeakW, ActivationW: s.ActivationW,
		BootW: s.BootW, OffW: s.OffW,
	}
}

// TotalFlops is the node's aggregate sustained performance (fs in the
// paper's notation, for a fully used node).
func (s NodeSpec) TotalFlops() float64 { return float64(s.Cores) * s.FlopsPerCore }

// TaskSeconds returns the execution time of a task of ops flops on one
// core of this node (ni/fs with per-core fs).
func (s NodeSpec) TaskSeconds(ops float64) float64 { return ops / s.FlopsPerCore }

// GreenPerfStatic returns the ratio peak-power/performance the static
// benchmarking approach would compute (lower is better). The dynamic
// approach in internal/power.Estimator supersedes it at runtime.
func (s NodeSpec) GreenPerfStatic() float64 { return s.PeakW / s.TotalFlops() }

// Spec catalog calibrated for the experiments. Wattages follow the
// published characteristics of the GRID'5000 Lyon site:
//   - Taurus: Dell R720, 2×6 cores E5-2630 @2.3 GHz — lean (no
//     accelerator), the most energy-efficient nodes in the paper.
//   - Orion: Dell R720 + Tesla M2075 — same CPU as Taurus plus a GPU,
//     hence the highest idle and peak draw, but marginally the fastest
//     CPU clocks in practice (the paper's PERFORMANCE policy prefers
//     them).
//   - Sagittaire: Sun V20z, 2×1 core Opteron 250 @2.4 GHz (2005) —
//     slow and power-hungry: worst on both axes.
//
// FlopsPerCore is scaled so that the paper's CPU-bound task (nominally
// 1e8 successive additions) lands in the same duration regime as the
// testbed runs; see DESIGN.md §3.
var catalog = map[string]NodeSpec{
	"taurus": {
		Cluster: "taurus", Cores: 12, FlopsPerCore: 9.0e9,
		IdleW: 95, PeakW: 222, ActivationW: 50, BootW: 170, OffW: 8, BootSec: 120,
	},
	"orion": {
		Cluster: "orion", Cores: 12, FlopsPerCore: 9.6e9,
		IdleW: 165, PeakW: 490, ActivationW: 160, BootW: 250, OffW: 10, BootSec: 150,
	},
	"sagittaire": {
		Cluster: "sagittaire", Cores: 2, FlopsPerCore: 4.6e9,
		IdleW: 190, PeakW: 258, ActivationW: 55, BootW: 230, OffW: 10, BootSec: 180,
	},
	// Table III simulated clusters (idle/peak published in the paper).
	"sim1": {
		Cluster: "sim1", Cores: 8, FlopsPerCore: 4.0e9,
		IdleW: 190, PeakW: 230, ActivationW: 20, BootW: 210, OffW: 8, BootSec: 100,
	},
	"sim2": {
		Cluster: "sim2", Cores: 8, FlopsPerCore: 3.0e9,
		IdleW: 160, PeakW: 190, ActivationW: 15, BootW: 175, OffW: 8, BootSec: 100,
	},
}

// Spec returns the catalog spec for a cluster type, or false if the
// type is unknown. The returned spec has no Name; use NewNodes.
func Spec(clusterType string) (NodeSpec, bool) {
	s, ok := catalog[clusterType]
	return s, ok
}

// Types returns the catalog cluster types in sorted order.
func Types() []string {
	out := make([]string, 0, len(catalog))
	for k := range catalog {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NewNodes mints n nodes of a catalog type, named type-0..type-n-1.
// It panics on unknown types: platform construction is configuration,
// and a typo should fail loudly at startup.
func NewNodes(clusterType string, n int) []NodeSpec {
	spec, ok := Spec(clusterType)
	if !ok {
		panic(fmt.Sprintf("cluster: unknown catalog type %q (have %v)", clusterType, Types()))
	}
	out := make([]NodeSpec, n)
	for i := range out {
		spec.Name = fmt.Sprintf("%s-%d", clusterType, i)
		out[i] = spec
	}
	return out
}

// Platform is an ordered collection of nodes (order defines the stable
// identity used in figures: x-axis "nodes available to solve the
// problem").
type Platform struct {
	Nodes []NodeSpec
}

// NewPlatform concatenates node groups into a platform and validates
// every node, rejecting duplicate names.
func NewPlatform(groups ...[]NodeSpec) (*Platform, error) {
	p := &Platform{}
	seen := make(map[string]bool)
	for _, g := range groups {
		for _, n := range g {
			if err := n.Validate(); err != nil {
				return nil, err
			}
			if seen[n.Name] {
				return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
			}
			seen[n.Name] = true
			p.Nodes = append(p.Nodes, n)
		}
	}
	if len(p.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty platform")
	}
	return p, nil
}

// MustPlatform is NewPlatform for static configuration; it panics on
// error.
func MustPlatform(groups ...[]NodeSpec) *Platform {
	p, err := NewPlatform(groups...)
	if err != nil {
		panic(err)
	}
	return p
}

// PaperPlatform returns the Table I SED infrastructure: 4 Orion,
// 4 Sagittaire and 4 Taurus nodes (the MA and client nodes carry no
// tasks and, per §IV-A, their constant draw "does not present any
// influence on the comparison", so they are not modelled as SEDs).
func PaperPlatform() *Platform {
	return MustPlatform(NewNodes("orion", 4), NewNodes("sagittaire", 4), NewNodes("taurus", 4))
}

// LowHeterogeneityPlatform returns the Figure 6 scenario: two server
// types with similar specifications (Table I types).
func LowHeterogeneityPlatform() *Platform {
	return MustPlatform(NewNodes("taurus", 4), NewNodes("orion", 4))
}

// HighHeterogeneityPlatform returns the Figure 7 scenario: four
// different server types (Table I types plus the Table III simulated
// clusters).
func HighHeterogeneityPlatform() *Platform {
	return MustPlatform(NewNodes("taurus", 4), NewNodes("orion", 4), NewNodes("sim1", 4), NewNodes("sim2", 4))
}

// Cores returns the total schedulable cores.
func (p *Platform) Cores() int {
	total := 0
	for _, n := range p.Nodes {
		total += n.Cores
	}
	return total
}

// Clusters returns the distinct cluster names in first-appearance
// order.
func (p *Platform) Clusters() []string {
	var out []string
	seen := make(map[string]bool)
	for _, n := range p.Nodes {
		if !seen[n.Cluster] {
			seen[n.Cluster] = true
			out = append(out, n.Cluster)
		}
	}
	return out
}

// ByCluster returns the indices of nodes belonging to the cluster.
func (p *Platform) ByCluster(cluster string) []int {
	var out []int
	for i, n := range p.Nodes {
		if n.Cluster == cluster {
			out = append(out, i)
		}
	}
	return out
}

// Find returns the index of the named node, or -1.
func (p *Platform) Find(name string) int {
	for i, n := range p.Nodes {
		if n.Name == name {
			return i
		}
	}
	return -1
}

// PeakWatts returns the aggregate fully-loaded draw — the PTotal of
// the paper's Algorithm 1.
func (p *Platform) PeakWatts() power.Watts {
	total := 0.0
	for _, n := range p.Nodes {
		total += n.PeakW
	}
	return total
}

// HeterogeneityIndex quantifies "the level of heterogeneity" §IV-B
// manages: the coefficient of variation (stddev/mean) of the nodes'
// static GreenPerf ratios. 0 means a perfectly homogeneous platform;
// Figure 7's four-type platform scores well above Figure 6's two-type
// one.
func (p *Platform) HeterogeneityIndex() float64 {
	n := float64(len(p.Nodes))
	mean := 0.0
	for _, node := range p.Nodes {
		mean += node.GreenPerfStatic()
	}
	mean /= n
	if mean == 0 {
		return 0
	}
	ss := 0.0
	for _, node := range p.Nodes {
		d := node.GreenPerfStatic() - mean
		ss += d * d
	}
	return math.Sqrt(ss/n) / mean
}

// SyntheticPlatform builds a platform of `types` synthetic node types,
// `nodesPerType` nodes each, whose power/performance diversity is set
// by spread ∈ [0, 1]: 0 yields identical nodes, 1 the widest mix. The
// types interpolate between four hardware archetypes mirroring the
// paper's testbed (Table I): lean-balanced (taurus-like, the best
// power/performance ratio), fast-hungry (orion-like), frugal-slow (the
// lowest absolute draw, which pure POWER ranking chases), and legacy
// slow-hungry (sagittaire-like, bad on both axes). The mix keeps power
// and performance non-co-monotone, so GreenPerf, POWER and PERFORMANCE
// pick genuinely different nodes at every nonzero spread. It is the
// knob behind the heterogeneity-continuum study generalizing Figures
// 6–7: the paper concludes "the effectiveness of this metric strongly
// relies on the heterogeneity of servers", and the continuum
// quantifies that claim beyond the two published points.
func SyntheticPlatform(types, nodesPerType int, spread float64) (*Platform, error) {
	if types < 2 {
		return nil, fmt.Errorf("cluster: synthetic platform needs >=2 types, got %d", types)
	}
	if nodesPerType < 1 {
		return nil, fmt.Errorf("cluster: synthetic platform needs >=1 node per type, got %d", nodesPerType)
	}
	if spread < 0 || spread > 1 {
		return nil, fmt.Errorf("cluster: spread %v outside [0,1]", spread)
	}
	const (
		baseFlops = 6.0e9 // per core
		basePeak  = 260.0 // watts
		cores     = 8
	)
	// Archetype deltas at spread=1: multipliers applied as 1 + spread*d.
	archetypes := []struct{ dFlops, dPeak float64 }{
		{0.0, -0.40},  // lean-balanced: base speed, much lower draw
		{+0.8, +1.20}, // fast-hungry: fastest, hungriest
		{-0.7, -0.60}, // frugal-slow: lowest draw, slow (worse ratio than lean)
		{-0.5, +0.30}, // legacy: slow and hungry
	}
	groups := make([][]NodeSpec, types)
	for i := 0; i < types; i++ {
		a := archetypes[i%len(archetypes)]
		f := baseFlops * (1 + spread*a.dFlops)
		peak := basePeak * (1 + spread*a.dPeak)
		spec := NodeSpec{
			Cluster:      fmt.Sprintf("syn%d", i),
			Cores:        cores,
			FlopsPerCore: f,
			IdleW:        0.45 * peak,
			PeakW:        peak,
			ActivationW:  0.10 * peak,
			BootW:        0.80 * peak,
			OffW:         0.03 * peak, // residual scales with the PSU
			BootSec:      120,
		}
		group := make([]NodeSpec, nodesPerType)
		for j := range group {
			spec.Name = fmt.Sprintf("syn%d-%d", i, j)
			group[j] = spec
		}
		groups[i] = group
	}
	return NewPlatform(groups...)
}
