// Package experiments contains one harness per table and figure of the
// paper's evaluation (§IV): workload placement (Table II, Figures 2–5),
// the GreenPerf metric study (Figures 6–7, Table III) and adaptive
// resource provisioning (Figure 9), plus the comparison studies that
// extend it (consolidation, carbon, SLA, preemption, the composed
// module stack) and the live drills over both transports.
//
// A comparison study is one workload replayed under several scheduler
// configurations and printed as one table. Every policy comparison is
// one: the §IV-A placement (built by PlacementConfig.variants, which
// the replication, bake-off and heterogeneity sweep share), the §IV-B
// metric study, the preference sweep, consolidation, carbon, SLA,
// preemption and the composed stack. Only Figure 9 and the tariff
// study, time series of one adaptive run, stay outside. A study
// declares only what differs: its named sim.Config variants, handed to
// runVariants, and its table columns, handed to Runs.table. The runner
// keeps each variant's whole *sim.Result, so a derived figure (NetUSD,
// VictimMisses, TaskShareJ, TaskEnergyJ) is a method on Run, written
// once. To add a study, write its Config with Default/Validate, build
// the variants from it, and pick columns: the shared ones below, or a
// study-local column literal. Its Render adds the headline prose under
// the table.
package experiments

import (
	"fmt"

	"greensched/internal/budget"
	"greensched/internal/report"
	"greensched/internal/sched"
	"greensched/internal/sim"
)

// Run is one named configuration's outcome in a comparison study.
type Run struct {
	Name string
	*sim.Result
	// BudgetSpentJ is what the variant's budget tracker metered (zero
	// without one).
	BudgetSpentJ float64
}

// NetUSD returns earned minus contractual penalties (zero without an
// SLA ledger).
func (r Run) NetUSD() float64 {
	if r.SLA == nil {
		return 0
	}
	return r.SLA.EarnedUSD - r.SLA.PenaltyUSD
}

// VictimMisses counts completions that were preempted at least once
// and still finished past their own deadline — the breaches preemption
// itself would be guilty of. The safety calculus keeps this at zero.
func (r Run) VictimMisses() int {
	n := 0
	for _, rec := range r.Records {
		if rec.Preemptions > 0 && rec.Deadline > 0 && rec.Finish > rec.Deadline {
			n++
		}
	}
	return n
}

// TaskEnergyJ is the Eq. 5-attributed task energy: Σ measured mean
// power × execution time over all completed tasks — the quantity the
// Eq. 6 score optimizes.
func (r Run) TaskEnergyJ() float64 {
	sum := 0.0
	for _, rec := range r.Records {
		sum += rec.MeanPowerW * rec.Exec()
	}
	return sum
}

// TaskShareJ sums every completed task's attributed energy share, in
// completion order — the order a budget tracker is charged in.
func (r Run) TaskShareJ() float64 {
	sum := 0.0
	for _, rec := range r.Records {
		sum += rec.EnergyShareJ
	}
	return sum
}

// Runs lists a study's outcomes in the order its variants ran.
type Runs []Run

// Run returns the named configuration's outcome, or false.
func (rs Runs) Run(name string) (Run, bool) {
	for _, r := range rs {
		if r.Name == name {
			return r, true
		}
	}
	return Run{}, false
}

// kind returns the run of a study whose variants are named after their
// policies (see PlacementConfig.variants). The study ran that policy by
// construction, so a missing run is a programming error.
func (rs Runs) kind(k sched.Kind) Run {
	r, ok := rs.Run(string(k))
	if !ok {
		panic(fmt.Sprintf("experiments: no %s run", k))
	}
	return r
}

// variant is one named configuration of a study. tracker, when set, is
// the budget tracker the configuration's modules charge; the runner
// reads its spend back into Run.BudgetSpentJ.
type variant struct {
	name    string
	cfg     sim.Config
	tracker *budget.Tracker
}

// runVariants runs each configuration in order, with a RecordModule
// stacked last so the per-task figures above have records to read.
func runVariants(study string, variants ...variant) (Runs, error) {
	runs := make(Runs, 0, len(variants))
	for _, v := range variants {
		cfg := v.cfg
		cfg.Modules = append(cfg.Modules[:len(cfg.Modules):len(cfg.Modules)], &sim.RecordModule{})
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %s: %w", study, v.name, err)
		}
		run := Run{Name: v.name, Result: res}
		if v.tracker != nil {
			run.BudgetSpentJ = v.tracker.Spent()
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// column is one table column: its header and how a run fills it.
type column struct {
	header string
	cell   func(Run) string
}

// The columns several studies share.
var (
	colEnergyJ   = column{"Energy (J)", func(r Run) string { return fmt.Sprintf("%.0f", r.EnergyJ) }}
	colEnergyMJ  = column{"Energy (MJ)", func(r Run) string { return fmt.Sprintf("%.2f", r.EnergyJ/1e6) }}
	colMakespanS = column{"Makespan (s)", func(r Run) string { return fmt.Sprintf("%.0f", r.Makespan) }}
	colMeanWait  = column{"Mean wait (s)", func(r Run) string { return fmt.Sprintf("%.1f", r.MeanWait()) }}
	colCO2       = column{"CO2 (g)", func(r Run) string { return fmt.Sprintf("%.0f", r.CO2Grams) }}
	colMakespanH = column{"Makespan (h)", func(r Run) string { return fmt.Sprintf("%.1f", r.Makespan/3600) }}
	colBoots     = column{"Boots", func(r Run) string { return fmt.Sprint(r.Boots) }}
	colShutdowns = column{"Shutdowns", func(r Run) string { return fmt.Sprint(r.Shutdowns) }}
	colLate      = column{"Late", func(r Run) string { return fmt.Sprint(r.DeadlineMisses) }}
	colRejected  = column{"Rejected", func(r Run) string { return fmt.Sprint(r.Rejected) }}
	colNetUSD    = column{"Net ($)", func(r Run) string { return fmt.Sprintf("%.2f", r.NetUSD()) }}
	colForfeited = column{"Forfeited ($)", func(r Run) string { return fmt.Sprintf("%.2f", r.SLA.ForfeitedUSD) }}
	colPreempts  = column{"Preempts", func(r Run) string { return fmt.Sprint(r.Preemptions) }}
	colVictims   = column{"Victim misses", func(r Run) string { return fmt.Sprint(r.VictimMisses()) }}
)

// table renders one row per run under a "Configuration" column.
func (rs Runs) table(title string, cols ...column) *report.Table {
	t := &report.Table{Title: title, Headers: []string{"Configuration"}}
	for _, c := range cols {
		t.Headers = append(t.Headers, c.header)
	}
	for _, r := range rs {
		row := []string{r.Name}
		for _, c := range cols {
			row = append(row, c.cell(r))
		}
		t.AddRow(row...)
	}
	return t
}
