package experiments

import (
	"fmt"
	"io"
	"sort"

	"greensched/internal/analysis"
	"greensched/internal/report"
	"greensched/internal/sched"
)

// ReplicationConfig parameterizes the multi-seed replication of the
// §IV-A experiment. The paper reports a single run per policy; on a
// deterministic simulator we can rerun the whole experiment across
// seeds and report each quantity as mean ± confidence interval, which
// turns the headline claims ("25% gain", "6% loss") into population
// statements instead of point estimates.
type ReplicationConfig struct {
	Base       PlacementConfig // per-run setup; Base.Seed is overridden
	Seeds      int             // number of independent runs (≥2)
	FirstSeed  int64           // seeds are FirstSeed, FirstSeed+1, ...
	Confidence float64         // CI level, e.g. 0.95
}

// DefaultReplicationConfig replicates the calibrated §IV-A setup
// across 10 seeds at 95% confidence.
func DefaultReplicationConfig() ReplicationConfig {
	return ReplicationConfig{
		Base:       DefaultPlacementConfig(),
		Seeds:      10,
		FirstSeed:  1,
		Confidence: 0.95,
	}
}

// ReplicationResult holds each seed's §IV-A runs.
type ReplicationResult struct {
	Config     ReplicationConfig
	Seeds      []int64
	Placements []*PlacementResult // one per seed, in Seeds order
}

// RunReplication reruns the §IV-A placement experiment for each seed.
func RunReplication(cfg ReplicationConfig) (*ReplicationResult, error) {
	if cfg.Seeds < 2 {
		return nil, fmt.Errorf("experiments: replication needs at least 2 seeds, got %d", cfg.Seeds)
	}
	if cfg.Confidence <= 0 || cfg.Confidence >= 1 {
		return nil, fmt.Errorf("experiments: confidence %v outside (0,1)", cfg.Confidence)
	}
	out := &ReplicationResult{Config: cfg}
	for i := 0; i < cfg.Seeds; i++ {
		seed := cfg.FirstSeed + int64(i)
		run := cfg.Base
		run.Seed = seed
		res, err := RunPlacement(run)
		if err != nil {
			return nil, fmt.Errorf("experiments: replication seed %d: %w", seed, err)
		}
		out.Seeds = append(out.Seeds, seed)
		out.Placements = append(out.Placements, res)
	}
	return out, nil
}

// series returns one figure of one policy's run, per seed.
func (r *ReplicationResult) series(kind sched.Kind, figure func(Run) float64) []float64 {
	out := make([]float64, len(r.Placements))
	for i, res := range r.Placements {
		out[i] = figure(res.kind(kind))
	}
	return out
}

func makespanOf(r Run) float64 { return r.Makespan }
func energyOf(r Run) float64   { return r.EnergyJ }

// ShapeViolation describes one seed where a paper ordering failed.
type ShapeViolation struct {
	Seed int64
	Rule string
}

// ShapeViolations checks the paper's orderings on every seed:
// energy(POWER) < energy(PERFORMANCE) < energy(RANDOM) and
// makespan(PERFORMANCE) ≤ makespan(POWER). An empty result means the
// Table II shape reproduced in all runs, not just on average.
func (r *ReplicationResult) ShapeViolations() []ShapeViolation {
	var out []ShapeViolation
	for i, seed := range r.Seeds {
		res := r.Placements[i]
		pw, pf, rd := res.kind(sched.Power), res.kind(sched.Performance), res.kind(sched.Random)
		if !(pw.EnergyJ < pf.EnergyJ) {
			out = append(out, ShapeViolation{seed, fmt.Sprintf("energy POWER (%.3g) ≥ PERFORMANCE (%.3g)", pw.EnergyJ, pf.EnergyJ)})
		}
		if !(pf.EnergyJ < rd.EnergyJ) {
			out = append(out, ShapeViolation{seed, fmt.Sprintf("energy PERFORMANCE (%.3g) ≥ RANDOM (%.3g)", pf.EnergyJ, rd.EnergyJ)})
		}
		if pf.Makespan > pw.Makespan {
			out = append(out, ShapeViolation{seed, "makespan PERFORMANCE > POWER"})
		}
	}
	return out
}

// Summaries returns the per-policy makespan and energy summaries in
// the paper's policy order.
func (r *ReplicationResult) Summaries() (makespan, energy map[sched.Kind]analysis.Summary, err error) {
	makespan = make(map[sched.Kind]analysis.Summary)
	energy = make(map[sched.Kind]analysis.Summary)
	for _, kind := range sched.Kinds() {
		m, err := analysis.Summarize(r.series(kind, makespanOf))
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: summarizing %s makespan: %w", kind, err)
		}
		e, err := analysis.Summarize(r.series(kind, energyOf))
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: summarizing %s energy: %w", kind, err)
		}
		makespan[kind] = m
		energy[kind] = e
	}
	return makespan, energy, nil
}

// HeadlineSummaries summarizes the per-seed headline ratios (POWER vs
// RANDOM energy gain, POWER vs PERFORMANCE energy gain, POWER vs
// PERFORMANCE makespan loss).
func (r *ReplicationResult) HeadlineSummaries() (gainVsRandom, gainVsPerf, loss analysis.Summary, err error) {
	var gR, gP, l []float64
	for _, res := range r.Placements {
		a, b, c := res.Headline()
		gR, gP, l = append(gR, a), append(gP, b), append(l, c)
	}
	if gainVsRandom, err = analysis.Summarize(gR); err != nil {
		return
	}
	if gainVsPerf, err = analysis.Summarize(gP); err != nil {
		return
	}
	loss, err = analysis.Summarize(l)
	return
}

// EnergySignificance runs Welch's t-test on the POWER vs RANDOM and
// POWER vs PERFORMANCE energy samples. Small p-values mean the energy
// separation is not a seeding artifact.
func (r *ReplicationResult) EnergySignificance() (vsRandom, vsPerf analysis.WelchResult, err error) {
	_, energy, err := r.Summaries()
	if err != nil {
		return analysis.WelchResult{}, analysis.WelchResult{}, err
	}
	vsRandom, err = analysis.WelchT(energy[sched.Power], energy[sched.Random])
	if err != nil {
		return analysis.WelchResult{}, analysis.WelchResult{}, err
	}
	vsPerf, err = analysis.WelchT(energy[sched.Power], energy[sched.Performance])
	return vsRandom, vsPerf, err
}

// Table renders Table II with mean ± CI cells.
func (r *ReplicationResult) Table() (*report.Table, error) {
	makespan, energy, err := r.Summaries()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: fmt.Sprintf("Table II replicated over %d seeds (mean ± %.0f%% CI)",
			len(r.Seeds), r.Config.Confidence*100),
		Headers: []string{"Metric", "RANDOM", "POWER", "PERFORMANCE"},
	}
	cell := func(s analysis.Summary) string {
		lo, hi := s.CI(r.Config.Confidence)
		return fmt.Sprintf("%.0f ± %.0f", s.Mean, (hi-lo)/2)
	}
	t.AddRow("Makespan (s)",
		cell(makespan[sched.Random]), cell(makespan[sched.Power]), cell(makespan[sched.Performance]))
	t.AddRow("Energy (J)",
		cell(energy[sched.Random]), cell(energy[sched.Power]), cell(energy[sched.Performance]))
	return t, nil
}

// Render writes the replicated Table II, the headline ratio intervals,
// the Welch significance tests and the per-seed shape check.
func (r *ReplicationResult) Render(w io.Writer) error {
	tbl, err := r.Table()
	if err != nil {
		return err
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	gR, gP, loss, err := r.HeadlineSummaries()
	if err != nil {
		return err
	}
	line := func(name string, s analysis.Summary, paper string) {
		lo, hi := s.CI(r.Config.Confidence)
		fmt.Fprintf(w, "%s: %.1f%% ± %.1f%% (paper: %s)\n", name, s.Mean*100, (hi-lo)/2*100, paper)
	}
	fmt.Fprintln(w)
	line("POWER energy gain vs RANDOM", gR, "25%")
	line("POWER energy gain vs PERFORMANCE", gP, "up to 19%")
	line("POWER makespan loss vs PERFORMANCE", loss, "up to 6%")

	vsRandom, vsPerf, err := r.EnergySignificance()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nWelch t-test, energy POWER vs RANDOM:      t=%.2f df=%.1f p=%.2g\n",
		vsRandom.T, vsRandom.DF, vsRandom.P)
	fmt.Fprintf(w, "Welch t-test, energy POWER vs PERFORMANCE: t=%.2f df=%.1f p=%.2g\n",
		vsPerf.T, vsPerf.DF, vsPerf.P)

	if viols := r.ShapeViolations(); len(viols) > 0 {
		sort.Slice(viols, func(i, j int) bool { return viols[i].Seed < viols[j].Seed })
		fmt.Fprintf(w, "\nshape violations (%d):\n", len(viols))
		for _, v := range viols {
			fmt.Fprintf(w, "  seed %d: %s\n", v.Seed, v.Rule)
		}
	} else {
		fmt.Fprintf(w, "\nTable II orderings held in all %d seeds.\n", len(r.Seeds))
	}
	return nil
}
