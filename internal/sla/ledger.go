package sla

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Account aggregates one SLA class's outcomes over a run.
type Account struct {
	Class string

	Completed int // tasks that ran to completion
	OnTime    int // completed with non-positive lateness
	Misses    int // completed past their deadline
	Rejected  int // refused by admission control
	Failed    int // admitted but lost to an execution failure

	EarnedUSD    float64 // value actually credited (post-curve)
	ForfeitedUSD float64 // value lost to lateness and rejections
	PenaltyUSD   float64 // contractual penalties (negative retained)

	WorstLateness float64 // largest lateness observed, seconds
	SlackSum      float64 // summed (deadline − finish) over deadline tasks
}

// Ledger turns task fates into dollars: each completion is credited
// through its penalty curve, each rejection forfeits its value, and
// the totals divide the run's joules and grams into cost-of-revenue
// intensities. The zero value is not ready; use NewLedger.
type Ledger struct {
	accounts map[string]*Account
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{accounts: make(map[string]*Account)} }

// account returns (creating) the class bucket; unclassified tasks
// land under "best-effort".
func (l *Ledger) account(class string) *Account {
	if class == "" {
		class = "best-effort"
	}
	a, ok := l.accounts[class]
	if !ok {
		a = &Account{Class: class}
		l.accounts[class] = a
	}
	return a
}

// Complete credits a completion at finish under its terms.
func (l *Ledger) Complete(t Terms, finish float64) {
	a := l.account(t.Class)
	a.Completed++
	earned := t.EarnedUSD(finish)
	if earned > 0 {
		a.EarnedUSD += earned
		a.ForfeitedUSD += t.ValueUSD - earned
	} else {
		a.ForfeitedUSD += t.ValueUSD
		a.PenaltyUSD += -earned
	}
	lateness := t.Lateness(finish)
	if t.Deadline > 0 {
		a.SlackSum += t.Deadline - finish
		if lateness > 0 {
			a.Misses++
			if lateness > a.WorstLateness {
				a.WorstLateness = lateness
			}
		} else {
			a.OnTime++
		}
	} else {
		a.OnTime++
	}
}

// Reject forfeits a refused task's full value.
func (l *Ledger) Reject(t Terms) {
	a := l.account(t.Class)
	a.Rejected++
	a.ForfeitedUSD += t.ValueUSD
}

// Fail forfeits an admitted task's full value when its execution was
// lost (crash, transport failure): the platform earns nothing, and the
// loss must not vanish from the books the way a silent drop would.
func (l *Ledger) Fail(t Terms) {
	a := l.account(t.Class)
	a.Failed++
	a.ForfeitedUSD += t.ValueUSD
}

// Summary is the whole-run revenue picture, with the run's energy and
// emissions divided into per-dollar intensities.
type Summary struct {
	EarnedUSD    float64
	ForfeitedUSD float64
	PenaltyUSD   float64

	Completed int
	OnTime    int
	Misses    int
	Rejected  int
	Failed    int

	// JoulesPerUSD and GramsPerUSD are the run's energy/emissions per
	// net dollar earned; +Inf when the run earned nothing.
	JoulesPerUSD float64
	GramsPerUSD  float64

	PerClass []Account // sorted by class name
}

// NetUSD returns earned minus contractual penalties.
func (s Summary) NetUSD() float64 { return s.EarnedUSD - s.PenaltyUSD }

// Summarize aggregates the ledger against the run's total energy and
// emissions. Accounts are folded in sorted class order so the dollar
// totals are bit-for-bit reproducible — map iteration order must not
// leak into float addition order (determinism tests compare Results
// exactly).
func (l *Ledger) Summarize(energyJ, co2Grams float64) Summary {
	var s Summary
	classes := make([]string, 0, len(l.accounts))
	for class := range l.accounts {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		a := l.accounts[class]
		s.EarnedUSD += a.EarnedUSD
		s.ForfeitedUSD += a.ForfeitedUSD
		s.PenaltyUSD += a.PenaltyUSD
		s.Completed += a.Completed
		s.OnTime += a.OnTime
		s.Misses += a.Misses
		s.Rejected += a.Rejected
		s.Failed += a.Failed
		s.PerClass = append(s.PerClass, *a)
	}
	if net := s.NetUSD(); net > 0 {
		s.JoulesPerUSD = energyJ / net
		s.GramsPerUSD = co2Grams / net
	} else {
		s.JoulesPerUSD = math.Inf(1)
		s.GramsPerUSD = math.Inf(1)
	}
	return s
}

// Line renders the account as one report row.
func (a Account) Line() string {
	return fmt.Sprintf(
		"%-12s %3d done (%d on time, %d late, %d rejected)  earned $%.2f  forfeited $%.2f  penalties $%.2f",
		a.Class, a.Completed, a.OnTime, a.Misses, a.Rejected,
		a.EarnedUSD, a.ForfeitedUSD, a.PenaltyUSD)
}

// Render writes the per-class breakdown plus totals. Runs that earned
// nothing have no meaningful cost-of-revenue intensity, so the +Inf
// sentinels render as "n/a" instead of leaking into the report.
func (s Summary) Render(w io.Writer) error {
	for _, a := range s.PerClass {
		if _, err := fmt.Fprintf(w, "  %s\n", a.Line()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "  total earned $%.2f, forfeited $%.2f, penalties $%.2f; %s J/$, %s gCO2/$\n",
		s.EarnedUSD, s.ForfeitedUSD, s.PenaltyUSD,
		perUSD(s.JoulesPerUSD, "%.0f"), perUSD(s.GramsPerUSD, "%.1f"))
	return err
}

// perUSD formats a per-dollar intensity, mapping the zero-revenue +Inf
// sentinel to "n/a".
func perUSD(v float64, format string) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf(format, v)
}
