// Package estvec implements DIET-style estimation vectors: tagged
// collections of scalar metrics that each Server Daemon (SED) fills in
// response to a request, and that agents consume to sort candidate
// servers (§II-A, §III-A of the paper).
//
// DIET's estimation vector is a list of (tag, value) pairs; a default
// estimation function populates system metrics, and plug-in schedulers
// may add custom tags. The paper's contribution adds energy tags
// (average power, boot cost, GreenPerf) next to the classic
// performance tags.
package estvec

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Tag identifies one metric inside an estimation vector.
type Tag string

// Standard tags. A SED is free to define additional custom tags; these
// are the ones the bundled policies consume.
const (
	// TagFlops is the server's sustained performance in flop/s
	// (fs). Filled from the dynamic estimator or a static benchmark.
	TagFlops Tag = "flops"
	// TagPowerW is the server's average active power draw in watts
	// (cs), learned from past requests.
	TagPowerW Tag = "power_w"
	// TagGreenPerf is the power/performance ratio (lower = greener).
	TagGreenPerf Tag = "greenperf"
	// TagFreeCores is the number of immediately available cores.
	TagFreeCores Tag = "free_cores"
	// TagQueueLen is the number of accepted-but-not-started tasks.
	TagQueueLen Tag = "queue_len"
	// TagWaitSec is the estimated wait before a new task starts (ws).
	TagWaitSec Tag = "wait_sec"
	// TagBootSec is the boot duration if the server is off (bts).
	TagBootSec Tag = "boot_sec"
	// TagBootPowerW is the draw while booting (bcs).
	TagBootPowerW Tag = "boot_power_w"
	// TagActive is 1 if the server is powered on, 0 otherwise.
	TagActive Tag = "active"
	// TagKnown is 1 once the dynamic estimator has data for the
	// server; 0 marks servers still in the learning phase.
	TagKnown Tag = "known"
	// TagRequests is the number of requests the server has completed
	// (the estimator's confidence).
	TagRequests Tag = "requests"
	// TagRandom is a per-response uniform draw in [0,1) used by the
	// RANDOM policy so that sorting stays a pure function of vectors.
	TagRandom Tag = "random"
	// TagCarbonIntensity is the grid carbon intensity the SED's site
	// sees right now, in gCO2/kWh. Carbon-aware policies combine it
	// with the power and flops tags into a grams-per-flop ordering.
	TagCarbonIntensity Tag = "carbon_gkwh"
	// TagRenewableFrac is the renewable supply fraction of the SED's
	// grid in [0,1] at response time.
	TagRenewableFrac Tag = "renewable_frac"
)

// stdTags enumerates the tags the bundled estimation functions and
// policies touch on every election, in declaration order. They get
// fixed array slots inside Vector so the sim's million-task hot loop
// reads and writes them without allocating. A standard tag finds its
// slot through stdSlot's switch on the constants, which compares the
// tag's bytes and never hashes them; only a custom tag pays a map
// operation, in the extra map. The "cores" entry is sched's auxiliary
// capacity tag (sched.TagCores) — not exported here, but set by every
// SED, so it earns a slot too.
var stdTags = [...]Tag{
	TagFlops, TagPowerW, TagGreenPerf, TagFreeCores, TagQueueLen,
	TagWaitSec, TagBootSec, TagBootPowerW, TagActive, TagKnown,
	TagRequests, TagRandom, TagCarbonIntensity, TagRenewableFrac,
	Tag("cores"),
}

const numStdTags = len(stdTags)

// stdSlot returns t's index in stdTags, or false for a custom tag.
func stdSlot(t Tag) (int, bool) {
	switch t {
	case TagFlops:
		return 0, true
	case TagPowerW:
		return 1, true
	case TagGreenPerf:
		return 2, true
	case TagFreeCores:
		return 3, true
	case TagQueueLen:
		return 4, true
	case TagWaitSec:
		return 5, true
	case TagBootSec:
		return 6, true
	case TagBootPowerW:
		return 7, true
	case TagActive:
		return 8, true
	case TagKnown:
		return 9, true
	case TagRequests:
		return 10, true
	case TagRandom:
		return 11, true
	case TagCarbonIntensity:
		return 12, true
	case TagRenewableFrac:
		return 13, true
	case "cores":
		return 14, true
	}
	return 0, false
}

// Vector is one server's estimation vector. The zero value is empty
// and ready to use via Set.
//
// Standard tags live in a fixed array with a presence bitmask; only
// custom plug-in tags spill into a lazily allocated map. A Vector can
// therefore be embedded by value and recycled with Reset, which is how
// the simulator's election loop stays allocation-free.
type Vector struct {
	// Server is the responding SED's unique name.
	Server string
	std    [numStdTags]float64
	mask   uint32 // presence bits for std slots
	extra  map[Tag]float64
}

// New returns an empty vector for a server.
func New(server string) *Vector {
	return &Vector{Server: server}
}

// Reset empties the vector and retargets it at server, keeping any
// overflow-map capacity. It lets hot loops reuse one Vector per
// candidate slot instead of allocating fresh ones per election.
func (v *Vector) Reset(server string) *Vector {
	v.Server = server
	v.mask = 0
	for t := range v.extra {
		delete(v.extra, t)
	}
	return v
}

// Set stores a metric, replacing any previous value. NaN and ±Inf are
// rejected with a panic: they would poison every comparison downstream
// and always indicate an estimation-function bug.
func (v *Vector) Set(t Tag, val float64) *Vector {
	if math.IsNaN(val) || math.IsInf(val, 0) {
		panic(fmt.Sprintf("estvec: non-finite value %v for tag %q on %s", val, t, v.Server))
	}
	if i, ok := stdSlot(t); ok {
		v.std[i] = val
		v.mask |= 1 << uint(i)
		return v
	}
	if v.extra == nil {
		v.extra = make(map[Tag]float64)
	}
	v.extra[t] = val
	return v
}

// SetBool stores 1 for true, 0 for false.
func (v *Vector) SetBool(t Tag, b bool) *Vector {
	if b {
		return v.Set(t, 1)
	}
	return v.Set(t, 0)
}

// Get returns the value for a tag and whether it was set.
func (v *Vector) Get(t Tag) (float64, bool) {
	if i, ok := stdSlot(t); ok {
		if v.mask&(1<<uint(i)) == 0 {
			return 0, false
		}
		return v.std[i], true
	}
	val, ok := v.extra[t]
	return val, ok
}

// Value returns the tag's value, or def if unset. Policies use this to
// stay robust against SEDs that omit optional tags.
func (v *Vector) Value(t Tag, def float64) float64 {
	if val, ok := v.Get(t); ok {
		return val
	}
	return def
}

// Bool returns whether the tag is set to a non-zero value.
func (v *Vector) Bool(t Tag) bool { return v.Value(t, 0) != 0 }

// Has reports whether the tag is present.
func (v *Vector) Has(t Tag) bool { _, ok := v.Get(t); return ok }

// Tags returns the present tags in sorted order.
func (v *Vector) Tags() []Tag {
	out := make([]Tag, 0, v.Len())
	for i, t := range stdTags {
		if v.mask&(1<<uint(i)) != 0 {
			out = append(out, t)
		}
	}
	for t := range v.extra {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of set tags.
func (v *Vector) Len() int { return bits.OnesCount32(v.mask) + len(v.extra) }

// String renders "server{tag=value,...}" with tags sorted, for logs
// and tests.
func (v *Vector) String() string {
	var b strings.Builder
	b.WriteString(v.Server)
	b.WriteByte('{')
	for i, t := range v.Tags() {
		if i > 0 {
			b.WriteByte(',')
		}
		val, _ := v.Get(t)
		fmt.Fprintf(&b, "%s=%.4g", t, val)
	}
	b.WriteByte('}')
	return b.String()
}

// List is an ordered collection of vectors — what an agent receives
// from its children and sorts with its plug-in scheduler.
type List []*Vector

// Less is a comparison function over vectors; true means a ranks
// strictly before b.
type Less func(a, b *Vector) bool

// SortStable sorts the list in place with a stable sort so that equal
// servers keep their child order — this is what makes hierarchical
// merging deterministic.
func (l List) SortStable(less Less) {
	sort.SliceStable(l, func(i, j int) bool { return less(l[i], l[j]) })
}

// ByTagAsc returns a Less ordering by a tag ascending (missing values
// rank last); ties fall through to the next comparison.
func ByTagAsc(t Tag, next Less) Less {
	return func(a, b *Vector) bool {
		av, aok := a.Get(t)
		bv, bok := b.Get(t)
		switch {
		case aok && !bok:
			return true
		case !aok && bok:
			return false
		case aok && bok && av != bv:
			return av < bv
		default:
			if next != nil {
				return next(a, b)
			}
			return false
		}
	}
}

// ByTagDesc returns a Less ordering by a tag descending (missing
// values rank last).
func ByTagDesc(t Tag, next Less) Less {
	return func(a, b *Vector) bool {
		av, aok := a.Get(t)
		bv, bok := b.Get(t)
		switch {
		case aok && !bok:
			return true
		case !aok && bok:
			return false
		case aok && bok && av != bv:
			return av > bv
		default:
			if next != nil {
				return next(a, b)
			}
			return false
		}
	}
}

// ByServerName is a final deterministic tiebreak.
func ByServerName(a, b *Vector) bool { return a.Server < b.Server }
