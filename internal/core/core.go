// Package core implements the paper's primary contribution: the
// GreenPerf energy-efficiency metric, the provider/user preference
// model (Eq. 1–3), the per-task computation-time and energy models
// (Eq. 4–5), the combined score used to rank servers (Eq. 6–7), and
// the greedy candidate-selection algorithm under a power cap
// (Algorithm 1).
//
// Everything in this package is a pure function over server
// descriptions: no clocks, no goroutines, no I/O. It does not order
// servers itself: every election, in the simulator and in the live
// middleware, ranks estimation vectors through a sched.Policy.
// sched.ServerFromVector turns a vector into a Server, and the
// policies call Score (SCORE, Eq. 6), CarbonPerf (CARBON) and
// ComputationTime (DeadlineAware, Eq. 4) on it; provision.Rules calls
// CandidateQuota. Because both execution modes reach these formulas
// through the same policies, their decisions are comparable.
package core

import "math"

// Server is the per-server knowledge the scheduler needs at decision
// time, using the paper's §III-C notation.
type Server struct {
	Name string

	Flops  float64 // fs: sustained performance, flop/s
	PowerW float64 // cs: average draw when loaded, watts

	BootPowerW float64 // bcs: draw during boot, watts
	BootSec    float64 // bts: boot duration, seconds
	WaitSec    float64 // ws: estimated wait in the task queue, seconds

	// CarbonIntensity is the grid carbon intensity the server's site
	// sees at decision time, in gCO2/kWh (0 = unknown). It extends the
	// paper's notation with the where/when of the watts; CarbonPerf
	// in carbon.go consumes it.
	CarbonIntensity float64

	Active bool // powered on (false = must boot first)
}

// GreenPerf returns the paper's ranking ratio
//
//	Power Consumption / Performance
//
// in watts per flop/s; lower is better ("the most energy-efficient
// servers are given priority; S0 being the best server under the
// GreenPerf metric", Fig. 1).
func (s Server) GreenPerf() float64 { return s.PowerW / s.Flops }

// ComputationTime implements Eq. 4: the completion time of a task of
// ops flops, accounting for the queue on an active server or the boot
// delay on an inactive one.
//
//	active:   ws  + ni/fs
//	inactive: bts + ni/fs
func (s Server) ComputationTime(ops float64) float64 {
	exec := ops / s.Flops
	if s.Active {
		return s.WaitSec + exec
	}
	return s.BootSec + exec
}

// EnergyConsumption implements Eq. 5: the energy attributed to the
// task, including the boot investment for inactive servers.
//
//	active:   cs·ni/fs
//	inactive: bts·bcs + cs·ni/fs
func (s Server) EnergyConsumption(ops float64) float64 {
	e := s.PowerW * ops / s.Flops
	if !s.Active {
		e += s.BootSec * s.BootPowerW
	}
	return e
}

// Score implements Eq. 6:
//
//	Sc(P) = (computation time)^(2/(P+1) − 1) × (energy consumption)
//
// for a user preference P. Lower scores rank first. The exponent
// interpolates the paper's Eq. 7 limits:
//
//	P → −0.9 : exponent 19    → time dominates (maximize performance)
//	P →  0   : exponent 1     → time × energy (energy-delay product)
//	P → +0.9 : exponent ≈0.05 → energy dominates (maximize efficiency)
func (s Server) Score(ops float64, pref UserPref) float64 {
	t := s.ComputationTime(ops)
	e := s.EnergyConsumption(ops)
	return math.Pow(t, ScoreExponent(pref)) * e
}

// ScoreExponent returns Eq. 6's time exponent 2/(P+1) − 1 for a user
// preference.
func ScoreExponent(pref UserPref) float64 {
	p := pref.Clamped()
	return 2/(float64(p)+1) - 1
}

// UserPref is Preference_user of Eq. 2: −1 maximizes performance, 0 is
// indifferent, +1 maximizes energy efficiency. The paper restricts the
// effective range to [−0.9, 0.9] "because if all users choose 1, it
// would result in waiting queues on the most energy-efficient nodes";
// Clamped applies that restriction.
type UserPref float64

// Canonical user preferences (Eq. 2).
const (
	PrefMaxPerformance UserPref = -1
	PrefNone           UserPref = 0
	PrefMaxEfficiency  UserPref = 1
)

// ClampLimit is the effective bound the paper imposes on user
// preferences.
const ClampLimit = 0.9

// Clamped restricts the preference to [−0.9, 0.9].
func (p UserPref) Clamped() UserPref {
	if p < -ClampLimit {
		return -ClampLimit
	}
	if p > ClampLimit {
		return ClampLimit
	}
	return p
}

// ProviderPref models Eq. 1: Preference_provider(u, c) = α(1−c) + βu,
// the provider's appetite for making servers available given the
// current electricity cost ratio c and resource utilization u. α and β
// weight the two terms; with α+β ≤ 1 and u, c ∈ [0,1] the result stays
// in [0,1]. "The higher the value, the larger the number of available
// servers for a time period."
type ProviderPref struct {
	Alpha float64 // weight of cheap electricity (1−c)
	Beta  float64 // weight of resource utilization u
}

// DefaultProviderPref weights electricity cost and utilization
// equally.
var DefaultProviderPref = ProviderPref{Alpha: 0.5, Beta: 0.5}

// Eval computes Eq. 1 with u and c clamped to [0,1].
func (pp ProviderPref) Eval(utilization, costRatio float64) float64 {
	u := clamp01(utilization)
	c := clamp01(costRatio)
	return pp.Alpha*(1-c) + pp.Beta*u
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// SelectCandidates implements Algorithm 1: given servers already
// sorted by GreenPerf (list T), accumulate servers greedily until
// their summed power reaches
//
//	P_required = Preference_provider × P_Total
//
// where P_Total is the summed power of all servers. The result RES is
// a prefix of the sorted list — the minimal set of most efficient
// servers that covers the provider's power budget. providerPref is
// clamped to [0,1]; a preference of 0 yields an empty set, 1 yields
// every server.
func SelectCandidates(sorted []Server, providerPref float64) []Server {
	pTotal := 0.0
	for _, s := range sorted {
		pTotal += s.PowerW
	}
	pRequired := clamp01(providerPref) * pTotal
	var res []Server
	p := 0.0
	for _, s := range sorted {
		if p >= pRequired {
			break
		}
		p += s.PowerW
		res = append(res, s)
	}
	return res
}

// CandidateQuota converts the administrator threshold rules of §IV-C
// into a node count: the number of candidate nodes as a fraction of
// total nodes, rounded down but never below minNodes (the paper's heat
// event keeps 2 nodes alive) nor above totalNodes.
func CandidateQuota(totalNodes int, fraction float64, minNodes int) int {
	n := int(math.Floor(clamp01(fraction) * float64(totalNodes)))
	if n < minNodes {
		n = minNodes
	}
	if n > totalNodes {
		n = totalNodes
	}
	return n
}
