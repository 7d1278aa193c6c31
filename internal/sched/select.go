package sched

import (
	"errors"

	"greensched/internal/estvec"
)

// ErrNoServer is returned when no server can accept the request ("If
// no server is able to solve it, an error message is returned",
// §III-A step 1).
var ErrNoServer = errors.New("sched: no server able to accept the request")

// Selector implements the server-election procedure the Master Agent
// performs once the sorted candidate list reaches it. It layers the
// operational constraints of §IV-A on top of a Policy:
//
//  1. Learning phase — servers whose dynamic estimators have no data
//     yet (TagKnown=0) are elected first so the scheduler can measure
//     them ("the dynamic information is gathered as tasks are computed
//     by the servers"; Figs. 2–3 show this as the residual tasks on
//     non-preferred clusters).
//  2. Capacity — "a server cannot execute a number of tasks greater
//     than its number of cores": servers with a free core are
//     preferred, in policy order.
//  3. Overload spill — when every server is busy, the request may
//     queue on a server whose backlog is below QueueFactor×cores
//     (policy order). This reproduces "execution on Orion ... occurs
//     when Taurus nodes are overloaded".
//  4. Last resort — every queue is at cap: elect the server with the
//     smallest estimated wait.
type Selector struct {
	Policy Policy
	// QueueFactor bounds a server's backlog to QueueFactor×cores
	// before the policy spills to the next server. The ablation bench
	// sweeps this; 1.0 is the default used by the experiments.
	QueueFactor float64
	// Explore enables the learning phase (step 1). Disabled for
	// RANDOM, which needs no estimates.
	Explore bool
	// RankAll drops the free-core preference of step 2: every active
	// server under its queue cap competes purely on the policy
	// ordering. Score-based policies (§III-C) set this — their Eq. 4
	// wait term already prices queueing, so forcing free servers
	// first would double-count availability and flatten the
	// performance↔efficiency trade-off.
	RankAll bool
}

// NewSelector returns a selector with the experiment defaults.
func NewSelector(p Policy) *Selector {
	return &Selector{Policy: p, QueueFactor: 1.0, Explore: true}
}

// Select elects one server from the estimation vectors. The list is
// not mutated. Select performs no allocations: inactive servers are
// skipped inline during each scan instead of being filtered into a
// temporary slice, which matters in the simulator's per-arrival
// election loop at million-task scale. Scan order over the active
// vectors is unchanged, so elections are identical to the filtering
// implementation.
func (s *Selector) Select(list estvec.List) (*estvec.Vector, error) {
	anyActive := false
	for _, v := range list {
		if v.Bool(estvec.TagActive) {
			anyActive = true
			break
		}
	}
	if !anyActive {
		return nil, ErrNoServer
	}

	// Learning phase: fewest completed requests first, then policy.
	if s.Explore {
		var best *estvec.Vector
		for _, v := range list {
			if !v.Bool(estvec.TagActive) {
				continue
			}
			if v.Bool(estvec.TagKnown) || v.Value(estvec.TagFreeCores, 0) <= 0 {
				continue
			}
			if best == nil || s.learnLess(v, best) {
				best = v
			}
		}
		if best != nil {
			return best, nil
		}
	}

	qf := s.QueueFactor
	if qf <= 0 {
		qf = 1.0
	}

	if s.RankAll {
		// Score-style election: free or queued-under-cap servers
		// compete purely on the policy ordering.
		if v := s.bestWhere(list, func(v *estvec.Vector) bool {
			return v.Value(estvec.TagFreeCores, 0) > 0 || underCap(v, qf)
		}); v != nil {
			return v, nil
		}
	} else {
		// Free capacity, policy order.
		if v := s.bestWhere(list, func(v *estvec.Vector) bool {
			return v.Value(estvec.TagFreeCores, 0) > 0
		}); v != nil {
			return v, nil
		}
		// Overload spill under the queue cap.
		if v := s.bestWhere(list, func(v *estvec.Vector) bool {
			return underCap(v, qf)
		}); v != nil {
			return v, nil
		}
	}

	// Everything saturated: minimal estimated wait.
	less := estvec.ByTagAsc(estvec.TagWaitSec, estvec.ByServerName)
	var best *estvec.Vector
	for _, v := range list {
		if !v.Bool(estvec.TagActive) {
			continue
		}
		if best == nil || less(v, best) {
			best = v
		}
	}
	return best, nil
}

// underCap reports whether a server's backlog is below qf×cores.
func underCap(v *estvec.Vector, qf float64) bool {
	cores := v.Value(estvec.TagFreeCores, 0) + busyCores(v)
	return v.Value(estvec.TagQueueLen, 0) < qf*cores
}

func (s *Selector) learnLess(a, b *estvec.Vector) bool {
	// Exploration load counts completed requests plus in-flight work,
	// so simultaneous unknowns spread across servers instead of
	// piling onto the first name.
	load := func(v *estvec.Vector) float64 {
		return v.Value(estvec.TagRequests, 0) + busyCores(v) + v.Value(estvec.TagQueueLen, 0)
	}
	ra, rb := load(a), load(b)
	if ra != rb {
		return ra < rb
	}
	return s.Policy.Less(a, b)
}

func (s *Selector) bestWhere(list estvec.List, ok func(*estvec.Vector) bool) *estvec.Vector {
	var best *estvec.Vector
	for _, v := range list {
		if !v.Bool(estvec.TagActive) || !ok(v) {
			continue
		}
		if best == nil || s.Policy.Less(v, best) {
			best = v
		}
	}
	return best
}

// busyCores recovers the busy-core count a SED reported implicitly:
// vectors carry free cores; total cores = free + busy is not a tag, so
// SEDs additionally report queue occupancy against their own capacity.
// When the cores tag is absent we fall back to treating free==0 as "no
// headroom" with a single-slot queue cap.
func busyCores(v *estvec.Vector) float64 {
	if c, ok := v.Get(tagCores); ok {
		return c - v.Value(estvec.TagFreeCores, 0)
	}
	return 1
}

// tagCores is an auxiliary tag SEDs set so selectors can compute queue
// caps proportional to capacity.
const tagCores = estvec.Tag("cores")

// TagCores exposes the auxiliary capacity tag for SED estimation
// functions.
func TagCores() estvec.Tag { return tagCores }
