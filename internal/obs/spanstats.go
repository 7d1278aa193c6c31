package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// StageStats aggregates one stage's latency distribution across every
// span in the analyzed stream.
type StageStats struct {
	Stage string
	Count int
	P50   float64
	P95   float64
	P99   float64
	Mean  float64
	Max   float64
}

// StageShare is one leaf stage's contribution to a request's total.
type StageShare struct {
	Stage string
	Sec   float64
	Frac  float64 // of the root span's duration
}

// TraceSummary is one request's critical-path decomposition: its root
// duration split over the LEAF stages of the hop tree (a span is a
// leaf when no other span names it as parent — dispatch time, for
// example, is already decomposed into queue/solve/reply, so only the
// leaves are summed and nothing double-counts). Time the leaves do not
// explain appears as the synthetic "other" share.
type TraceSummary struct {
	TraceID  uint64
	Src      string // root span's emitter
	TotalSec float64
	Err      string // root error, or the first terminated span's
	Stages   map[string]bool
	Shares   []StageShare // sorted by Sec descending
	Critical string       // the dominant leaf stage
}

// SpanReport is the analyzed view of a span stream: per-stage
// percentiles plus per-request critical paths.
type SpanReport struct {
	Stages []StageStats   // canonical stage order, then alphabetical
	Traces []TraceSummary // by TraceID
	// Orphans counts spans whose trace has no root span (Parent 0) —
	// usually a partial file; they still feed Stages.
	Orphans int
}

// OtherStage labels critical-path time not explained by leaf spans
// (interceptor overhead between stages, clock-edge residue).
const OtherStage = "(other)"

// stageRank orders known stages canonically so reports read in
// lifecycle order; unknown stages sort after, alphabetically.
func stageRank(stage string) int {
	order := []string{
		StageSubmit, StageAdmission, StagePark, StageElect,
		StageEstimate, StageDial, StageEncode, StageDecode,
		StageDispatch, StageQueue, StageSolve, StageReply,
	}
	for i, s := range order {
		if s == stage {
			return i
		}
	}
	return len(order)
}

// percentile returns the q-quantile (0 < q <= 1) of sorted (ascending)
// values via the nearest-rank method — deterministic and exact on the
// small-n fixtures golden tests pin.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// AnalyzeSpans builds the report: group by trace, find each root,
// decompose its duration over leaf stages, and aggregate per-stage
// percentiles over every span seen.
func AnalyzeSpans(spans []Span) *SpanReport {
	rep := &SpanReport{}

	byStage := make(map[string][]float64)
	byTrace := make(map[uint64][]Span)
	for _, sp := range spans {
		byStage[sp.Name] = append(byStage[sp.Name], sp.DurSec)
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}

	stages := make([]string, 0, len(byStage))
	for s := range byStage {
		stages = append(stages, s)
	}
	sort.Slice(stages, func(i, j int) bool {
		ri, rj := stageRank(stages[i]), stageRank(stages[j])
		if ri != rj {
			return ri < rj
		}
		return stages[i] < stages[j]
	})
	for _, s := range stages {
		durs := byStage[s]
		sort.Float64s(durs)
		sum := 0.0
		for _, d := range durs {
			sum += d
		}
		rep.Stages = append(rep.Stages, StageStats{
			Stage: s, Count: len(durs),
			P50:  percentile(durs, 0.50),
			P95:  percentile(durs, 0.95),
			P99:  percentile(durs, 0.99),
			Mean: sum / float64(len(durs)),
			Max:  durs[len(durs)-1],
		})
	}

	traceIDs := make([]uint64, 0, len(byTrace))
	for id := range byTrace {
		traceIDs = append(traceIDs, id)
	}
	sort.Slice(traceIDs, func(i, j int) bool { return traceIDs[i] < traceIDs[j] })

	for _, id := range traceIDs {
		tspans := byTrace[id]
		sort.Slice(tspans, func(i, j int) bool { return tspans[i].SpanID < tspans[j].SpanID })

		var root *Span
		isParent := make(map[uint64]bool, len(tspans))
		for i := range tspans {
			isParent[tspans[i].Parent] = true
			if tspans[i].Parent == 0 && root == nil {
				root = &tspans[i]
			}
		}
		if root == nil {
			rep.Orphans += len(tspans)
			continue
		}

		ts := TraceSummary{
			TraceID:  id,
			Src:      root.Src,
			TotalSec: root.DurSec,
			Err:      root.Err,
			Stages:   make(map[string]bool, len(tspans)),
		}
		leafSec := make(map[string]float64)
		explained := 0.0
		for i := range tspans {
			sp := &tspans[i]
			ts.Stages[sp.Name] = true
			if ts.Err == "" && sp.Err != "" {
				ts.Err = sp.Err
			}
			if sp.SpanID == root.SpanID || isParent[sp.SpanID] {
				continue // inner node: its children already carry the time
			}
			leafSec[sp.Name] += sp.DurSec
			explained += sp.DurSec
		}
		if rest := ts.TotalSec - explained; rest > 0 {
			leafSec[OtherStage] += rest
		}
		for s, sec := range leafSec {
			share := StageShare{Stage: s, Sec: sec}
			if ts.TotalSec > 0 {
				share.Frac = sec / ts.TotalSec
			}
			ts.Shares = append(ts.Shares, share)
		}
		sort.Slice(ts.Shares, func(i, j int) bool {
			if ts.Shares[i].Sec != ts.Shares[j].Sec {
				return ts.Shares[i].Sec > ts.Shares[j].Sec
			}
			return ts.Shares[i].Stage < ts.Shares[j].Stage
		})
		if len(ts.Shares) > 0 {
			ts.Critical = ts.Shares[0].Stage
		}
		rep.Traces = append(rep.Traces, ts)
	}
	return rep
}

// RequireStages verifies every successful trace's hop tree contains
// all of the given stages — the analyzer-side completeness gate CI
// runs span streams through. Traces that ended in an error are exempt
// (their tree is legitimately truncated at the failing stage).
func (r *SpanReport) RequireStages(stages ...string) error {
	if len(r.Traces) == 0 {
		return fmt.Errorf("obs: span stream contains no complete traces")
	}
	for _, ts := range r.Traces {
		if ts.Err != "" {
			continue
		}
		for _, s := range stages {
			if !ts.Stages[s] {
				return fmt.Errorf("obs: trace %d is missing stage %q (has %s)",
					ts.TraceID, s, strings.Join(sortedKeys(ts.Stages), ", "))
			}
		}
	}
	return nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// renderTraces caps the per-request section: the slowest requests are
// the ones worth a line each.
const renderTraces = 10

// Render writes the human view: the per-stage percentile table, then
// the critical-path breakdown of the slowest requests.
func (r *SpanReport) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Per-stage latency (seconds):\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-12s %7s %12s %12s %12s %12s %12s\n",
		"STAGE", "COUNT", "P50", "P95", "P99", "MEAN", "MAX")
	for _, st := range r.Stages {
		fmt.Fprintf(w, "  %-12s %7d %12.6f %12.6f %12.6f %12.6f %12.6f\n",
			st.Stage, st.Count, st.P50, st.P95, st.P99, st.Mean, st.Max)
	}

	sorted := append([]TraceSummary(nil), r.Traces...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].TotalSec != sorted[j].TotalSec {
			return sorted[i].TotalSec > sorted[j].TotalSec
		}
		return sorted[i].TraceID < sorted[j].TraceID
	})
	shown := len(sorted)
	if shown > renderTraces {
		shown = renderTraces
	}
	fmt.Fprintf(w, "\nCritical path of the %d slowest of %d requests:\n", shown, len(sorted))
	for _, ts := range sorted[:shown] {
		parts := make([]string, 0, len(ts.Shares))
		for _, sh := range ts.Shares {
			parts = append(parts, fmt.Sprintf("%s %4.1f%%", sh.Stage, 100*sh.Frac))
		}
		line := fmt.Sprintf("  trace %-6d %10.6fs  critical=%-10s %s",
			ts.TraceID, ts.TotalSec, ts.Critical, strings.Join(parts, " | "))
		if ts.Err != "" {
			line += fmt.Sprintf("  ERR: %s", ts.Err)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	if r.Orphans > 0 {
		fmt.Fprintf(w, "\n%d spans belong to traces with no root span (partial stream?)\n", r.Orphans)
	}
	return nil
}
