package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureSpans loads the testdata span stream shared with the golden
// test (two complete traces, one errored, one orphan span).
func fixtureSpans(t *testing.T) []Span {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestAnalyzeSpans pins the analyzer's semantics on the fixture:
// canonical stage ordering, nearest-rank percentiles, leaf-only
// critical paths with the "(other)" residual, error propagation and
// orphan counting.
func TestAnalyzeSpans(t *testing.T) {
	rep := AnalyzeSpans(fixtureSpans(t))

	wantOrder := []string{
		StageSubmit, StageElect, StageEstimate, StageDispatch,
		StageQueue, StageSolve, StageReply,
	}
	if len(rep.Stages) != len(wantOrder) {
		t.Fatalf("%d stages, want %d", len(rep.Stages), len(wantOrder))
	}
	for i, st := range rep.Stages {
		if st.Stage != wantOrder[i] {
			t.Fatalf("stage[%d] = %q, want %q (canonical order)", i, st.Stage, wantOrder[i])
		}
	}
	var solve StageStats
	for _, st := range rep.Stages {
		if st.Stage == StageSolve {
			solve = st
		}
	}
	// Three solve spans (0.005, 0.013, orphan 0.002): nearest-rank P50
	// is the 2nd of the sorted [0.002 0.005 0.013].
	if solve.Count != 3 || solve.P50 != 0.005 || solve.P99 != 0.013 || solve.Max != 0.013 {
		t.Fatalf("solve stats = %+v", solve)
	}

	if len(rep.Traces) != 3 || rep.Orphans != 1 {
		t.Fatalf("%d traces, %d orphans — want 3 and 1", len(rep.Traces), rep.Orphans)
	}
	t1, t2, t3 := rep.Traces[0], rep.Traces[1], rep.Traces[2]

	if t1.TotalSec != 0.01 || t1.Critical != StageSolve {
		t.Fatalf("trace 1 = %+v, want 0.01s dominated by solve", t1)
	}
	var other float64
	for _, sh := range t1.Shares {
		if sh.Stage == OtherStage {
			other = sh.Sec
		}
	}
	// Leaves explain 0.0085 of 0.01: the residual must surface, not
	// silently vanish.
	if diff := other - 0.0015; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("trace 1 %s share = %v, want 0.0015", OtherStage, other)
	}

	if t2.Critical != StageSolve || t2.Shares[0].Frac < 0.6 {
		t.Fatalf("trace 2 = %+v, want solve as dominant share", t2)
	}

	if t3.Err != "no admissible server" {
		t.Fatalf("trace 3 err = %q, want the root's error", t3.Err)
	}
}

// TestRequireStages: complete traces pass the canonical gate, errored
// traces are exempt from it, and a genuinely missing stage (or an
// empty stream) fails.
func TestRequireStages(t *testing.T) {
	rep := AnalyzeSpans(fixtureSpans(t))
	// Trace 3 lacks dispatch/queue/solve/reply but carries an error, so
	// the canonical gate must still pass.
	if err := rep.RequireStages(CanonicalStages...); err != nil {
		t.Fatalf("canonical gate failed on complete fixture: %v", err)
	}
	if err := rep.RequireStages("warp"); err == nil {
		t.Fatal("missing stage accepted")
	} else if !strings.Contains(err.Error(), `"warp"`) {
		t.Fatalf("error does not name the missing stage: %v", err)
	}
	if err := (&SpanReport{}).RequireStages(StageSubmit); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestSpanReportGolden pins the exact analyzer output `greensched
// spans` prints — the CLI contract scripts parse. Regenerate after a
// deliberate format change with:
//
//	UPDATE_GOLDEN=1 go test ./internal/obs/ -run TestSpanReportGolden
func TestSpanReportGolden(t *testing.T) {
	rep := AnalyzeSpans(fixtureSpans(t))
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("render drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

// FuzzAnalyzeSpans feeds arbitrary bytes through the `greensched spans`
// pipeline — ReadSpans, AnalyzeSpans, Render — which reads files other
// processes wrote: no input may panic it, and every span decoded before
// any error is counted in exactly one stage's statistics. Tier-1 runs
// only the seed corpus.
func FuzzAnalyzeSpans(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "spans.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add([]byte(`{"trace":1,"span":1,"name":"submit","dur_sec":2}` + "\n" +
		`{"trace":1,"span":2,"parent":1,"name":"park","dur_sec":1.5}` + "\n" +
		`{"trace":1,"span":3,"parent":3,"name":"solve","dur_sec":-1,"err":"x"}`))
	f.Add([]byte(`{"trace":0,"span":0,"parent":0,"name":"","dur_sec":1e308}{"trace":0,"span":0,"name":""}`))
	f.Add([]byte(`{"trace":7,"span":1,"parent":9,"name":"queue","attrs":{"a":""}}` + "\nnot json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, _ := ReadSpans(bytes.NewReader(data)) // a decode error keeps the good prefix
		rep := AnalyzeSpans(spans)
		counted := 0
		for _, st := range rep.Stages {
			counted += st.Count
		}
		if counted != len(spans) {
			t.Fatalf("stages count %d spans, %d decoded", counted, len(spans))
		}
		if err := rep.Render(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}
