// Package sched implements the paper's scheduling policies as DIET
// plug-in schedulers: pure orderings over estimation vectors plus the
// server-selection procedure agents run at every level of the
// hierarchy.
//
// The three policies evaluated in §IV-A are POWER and PERFORMANCE
// (respectively "giving priority to ... the most energy-efficient
// nodes" and "to the fastest", "establishing the bounds of the
// GreenPerf metric") and RANDOM. GREENPERF ranks by the
// power/performance ratio itself, and SCORE ranks by the Eq. 6 score
// for a given task size and combined preference.
package sched

import (
	"fmt"
	"math"

	"greensched/internal/core"
	"greensched/internal/estvec"
)

// Policy is a plug-in scheduler: a total order over estimation
// vectors, best server first. Implementations must be pure functions
// of the two vectors so that sorting is deterministic and hierarchical
// merges are well-defined.
type Policy interface {
	// Name identifies the policy in reports ("POWER", ...).
	Name() string
	// Less reports whether a ranks strictly before (better than) b.
	Less(a, b *estvec.Vector) bool
}

// Kind selects one of the bundled policies by name.
type Kind string

// Bundled policy kinds.
const (
	Random      Kind = "RANDOM"
	Power       Kind = "POWER"
	Performance Kind = "PERFORMANCE"
	GreenPerf   Kind = "GREENPERF"
	// LeastLoaded is the classical grid meta-scheduler baseline
	// (§II-B: local resource managers balancing queue depth): shortest
	// estimated wait first, energy-blind. It bounds what queue
	// balancing alone achieves without the paper's energy tags.
	LeastLoaded Kind = "LEASTLOADED"
	// Carbon ranks by grams-per-flop: the GreenPerf ratio weighted by
	// each site's current grid carbon intensity (TagCarbonIntensity).
	// On a single-site platform it coincides with GREENPERF; across
	// sites it shifts work toward cleaner grids.
	Carbon Kind = "CARBON"
	// Renewable ranks by the grid's renewable supply fraction
	// (TagRenewableFrac, descending): work follows the wind and sun
	// regardless of absolute intensity. Unmetered servers rank last,
	// mirroring the CARBON fail-safe.
	Renewable Kind = "RENEWABLE"
)

// Kinds lists the bundled comparison policies in the order the paper's
// tables present them.
func Kinds() []Kind { return []Kind{Random, Power, Performance} }

// New returns the bundled policy for a kind. It panics on unknown
// kinds (configuration error).
func New(k Kind) Policy {
	switch k {
	case Random:
		return randomPolicy{}
	case Power:
		return powerPolicy{}
	case Performance:
		return performancePolicy{}
	case GreenPerf:
		return greenPerfPolicy{}
	case LeastLoaded:
		return leastLoadedPolicy{}
	case Carbon:
		return carbonPolicy{}
	case Renewable:
		return renewablePolicy{}
	default:
		panic(fmt.Sprintf("sched: unknown policy kind %q", k))
	}
}

type powerPolicy struct{}

func (powerPolicy) Name() string { return string(Power) }
func (powerPolicy) Less(a, b *estvec.Vector) bool {
	less := estvec.ByTagAsc(estvec.TagPowerW,
		estvec.ByTagDesc(estvec.TagFlops, estvec.ByServerName))
	return less(a, b)
}

type performancePolicy struct{}

func (performancePolicy) Name() string { return string(Performance) }
func (performancePolicy) Less(a, b *estvec.Vector) bool {
	less := estvec.ByTagDesc(estvec.TagFlops,
		estvec.ByTagAsc(estvec.TagPowerW, estvec.ByServerName))
	return less(a, b)
}

type greenPerfPolicy struct{}

func (greenPerfPolicy) Name() string { return string(GreenPerf) }
func (greenPerfPolicy) Less(a, b *estvec.Vector) bool {
	// Ratio ascending, performance descending as the secondary
	// parameter (§III-A).
	less := estvec.ByTagAsc(estvec.TagGreenPerf,
		estvec.ByTagDesc(estvec.TagFlops, estvec.ByServerName))
	return less(a, b)
}

type leastLoadedPolicy struct{}

func (leastLoadedPolicy) Name() string { return string(LeastLoaded) }
func (leastLoadedPolicy) Less(a, b *estvec.Vector) bool {
	// Shortest estimated wait, then the most free capacity, then name.
	less := estvec.ByTagAsc(estvec.TagWaitSec,
		estvec.ByTagDesc(estvec.TagFreeCores, estvec.ByServerName))
	return less(a, b)
}

type randomPolicy struct{}

func (randomPolicy) Name() string { return string(Random) }
func (randomPolicy) Less(a, b *estvec.Vector) bool {
	// SEDs draw TagRandom per response; ordering by it implements a
	// uniform shuffle while keeping Less a pure function.
	less := estvec.ByTagAsc(estvec.TagRandom, estvec.ByServerName)
	return less(a, b)
}

// carbonPolicy ranks by the emissions rate of placing work on a
// server: power × site carbon intensity / flops (grams per flop,
// ascending). Servers missing the power/flops estimates (learning
// phase) rank last. A server whose vector carries no intensity tag
// ranks after every metered one — an unmetered site must fail safe,
// not look infinitely clean; when *no* server reports an intensity
// (single-site platform without a grid feed) the ordering degrades to
// GreenPerf via CarbonPerf's neutral intensity.
type carbonPolicy struct{}

func (carbonPolicy) Name() string { return string(Carbon) }
func (carbonPolicy) Less(a, b *estvec.Vector) bool {
	if a.Has(estvec.TagCarbonIntensity) != b.Has(estvec.TagCarbonIntensity) {
		return a.Has(estvec.TagCarbonIntensity)
	}
	sa, aok := carbonRate(a)
	sb, bok := carbonRate(b)
	switch {
	case aok && !bok:
		return true
	case !aok && bok:
		return false
	case aok && bok && sa != sb:
		return sa < sb
	default:
		less := estvec.ByTagAsc(estvec.TagGreenPerf,
			estvec.ByTagDesc(estvec.TagFlops, estvec.ByServerName))
		return less(a, b)
	}
}

// renewablePolicy ranks by the renewable supply fraction of each
// SED's grid, descending: the greenest electrons first, whatever the
// absolute intensity. Servers whose vectors omit TagRenewableFrac
// (unmetered sites) rank after every metered one — the same fail-safe
// the CARBON policy applies — and ties fall through to GreenPerf so
// same-grid servers still order by efficiency.
type renewablePolicy struct{}

func (renewablePolicy) Name() string { return string(Renewable) }
func (renewablePolicy) Less(a, b *estvec.Vector) bool {
	less := estvec.ByTagDesc(estvec.TagRenewableFrac,
		estvec.ByTagAsc(estvec.TagGreenPerf,
			estvec.ByTagDesc(estvec.TagFlops, estvec.ByServerName)))
	return less(a, b)
}

func carbonRate(v *estvec.Vector) (float64, bool) {
	srv, ok := ServerFromVector(v)
	if !ok {
		return 0, false
	}
	return srv.CarbonPerf(), true
}

// ScorePolicy ranks by the Eq. 6 score for a task of Ops flops under
// the combined preference Pref. It is the policy behind the §III-C
// energy-event scheduling process.
type ScorePolicy struct {
	Ops  float64
	Pref core.UserPref
}

// Name implements Policy.
func (p ScorePolicy) Name() string { return fmt.Sprintf("SCORE(P=%.2f)", float64(p.Pref)) }

// Less implements Policy by reconstructing the Eq. 4–6 inputs from the
// estimation vector. Servers missing mandatory tags rank last.
func (p ScorePolicy) Less(a, b *estvec.Vector) bool {
	sa, aok := p.score(a)
	sb, bok := p.score(b)
	switch {
	case aok && !bok:
		return true
	case !aok && bok:
		return false
	case sa != sb:
		return sa < sb
	default:
		return a.Server < b.Server
	}
}

func (p ScorePolicy) score(v *estvec.Vector) (float64, bool) {
	srv, ok := ServerFromVector(v)
	if !ok {
		return 0, false
	}
	return srv.Score(p.Ops, p.Pref), true
}

// ServerFromVector converts an estimation vector into the core.Server
// the Eq. 4–6 models consume. ok is false when the mandatory flops or
// power tags are absent (server still in the learning phase).
func ServerFromVector(v *estvec.Vector) (core.Server, bool) {
	flops, okF := v.Get(estvec.TagFlops)
	pw, okP := v.Get(estvec.TagPowerW)
	if !okF || !okP || flops <= 0 || pw <= 0 {
		return core.Server{}, false
	}
	return core.Server{
		Name:            v.Server,
		Flops:           flops,
		PowerW:          pw,
		BootPowerW:      v.Value(estvec.TagBootPowerW, 0),
		BootSec:         v.Value(estvec.TagBootSec, 0),
		WaitSec:         math.Max(0, v.Value(estvec.TagWaitSec, 0)),
		CarbonIntensity: v.Value(estvec.TagCarbonIntensity, 0),
		Active:          v.Bool(estvec.TagActive),
	}, true
}
