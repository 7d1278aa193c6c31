package workload

import (
	"strings"
	"testing"
)

// TestParseTraceSLAColumns: the optional deadline/value/class columns
// parse positionally, with the deadline read relative to submission.
func TestParseTraceSLAColumns(t *testing.T) {
	in := `# submit,ops,pref,deadline,value,class
0,1e9
10,2e9,0.5
20,3e9,0,600
30,4e9,-0.5,1800,2.5
40,5e9,0,0,0.25,interactive
`
	tasks, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 5 {
		t.Fatalf("len = %d", len(tasks))
	}
	if tasks[0].Deadline != 0 || tasks[1].Deadline != 0 {
		t.Errorf("short rows must carry no deadline: %+v %+v", tasks[0], tasks[1])
	}
	if tasks[2].Deadline != 620 {
		t.Errorf("deadline must be submit-relative: got %v, want 620", tasks[2].Deadline)
	}
	if tasks[3].Deadline != 1830 || tasks[3].Value != 2.5 {
		t.Errorf("row 3 = %+v", tasks[3])
	}
	if tasks[4].Deadline != 0 || tasks[4].Value != 0.25 || tasks[4].Class != "interactive" {
		t.Errorf("row 4 = %+v (zero deadline column means none)", tasks[4])
	}
}

// TestTraceRoundTripSLA: WriteTrace → ParseTrace preserves the SLA
// annotations, including class names and relative deadlines.
func TestTraceRoundTripSLA(t *testing.T) {
	orig, err := BurstThenRate{
		Total: 6, Burst: 2, Rate: 1, Ops: 1e9,
		Class: "deadline", RelDeadline: 900,
	}.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		orig[i].Value = 0.5
	}
	orig[1].Pref = 0.25
	orig[3].Class = "" // mixed rows: this one degrades to a value column
	var b strings.Builder
	if err := WriteTrace(&b, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("%v\ntrace:\n%s", err, b.String())
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip lost tasks: %d vs %d", len(back), len(orig))
	}
	for i := range orig {
		got, want := back[i], orig[i]
		if got.Submit != want.Submit || got.Ops != want.Ops || got.Pref != want.Pref ||
			got.Deadline != want.Deadline || got.Value != want.Value || got.Class != want.Class {
			t.Errorf("task %d mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestParseTraceSLAMalformed: every malformed SLA field must be
// rejected with its line number, not silently zeroed.
func TestParseTraceSLAMalformed(t *testing.T) {
	cases := []struct {
		in   string
		line string
	}{
		{"0,1e9,0,bad\n", "line 1"},                   // unparsable deadline
		{"0,1e9,0,-5\n", "line 1"},                    // negative deadline
		{"5,1e9,0,600,x\n", "line 1"},                 // unparsable value
		{"5,1e9,0,600,-2\n", "line 1"},                // negative value (Validate)
		{"0,1e9\n5,1e9,0,600,1,c,extra\n", "line 2"},  // 7 fields
		{"0,1e9\n# ok\n5,1e9,0,600,zz,c\n", "line 3"}, // bad value with class
	}
	for _, c := range cases {
		_, err := ParseTrace(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%q: accepted", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.line) {
			t.Errorf("%q: error %q does not name %s", c.in, err, c.line)
		}
	}
}

// TestWriteTraceRejectsUnwritableClass: class names that would corrupt
// the CSV dialect are refused instead of round-tripping wrong.
func TestWriteTraceRejectsUnwritableClass(t *testing.T) {
	tasks := []Task{{ID: 0, Ops: 1e9, Submit: 0, Class: "a,b"}}
	var b strings.Builder
	if err := WriteTrace(&b, tasks); err == nil {
		t.Error("comma-bearing class written without error")
	}
}

// TestTaskValidateSLA: the new fields are screened like the old ones.
func TestTaskValidateSLA(t *testing.T) {
	if err := (Task{Ops: 1, Submit: 5, Deadline: 5}).Validate(); err == nil {
		t.Error("deadline at submit accepted")
	}
	if err := (Task{Ops: 1, Submit: 0, Deadline: -1}).Validate(); err == nil {
		t.Error("negative deadline accepted")
	}
	if err := (Task{Ops: 1, Submit: 0, Value: -0.5}).Validate(); err == nil {
		t.Error("negative value accepted")
	}
	if err := (Task{Ops: 1, Submit: 5, Deadline: 6, Value: 1, Class: "x"}).Validate(); err != nil {
		t.Errorf("valid SLA task rejected: %v", err)
	}
}

// TestShiftMovesDeadlines: Shift must keep deadlines on the same
// timeline as submissions.
func TestShiftMovesDeadlines(t *testing.T) {
	tasks := []Task{
		{ID: 0, Ops: 1, Submit: 0, Deadline: 100},
		{ID: 1, Ops: 1, Submit: 10}, // best-effort stays deadline-free
	}
	out := Shift(tasks, 50)
	if out[0].Submit != 50 || out[0].Deadline != 150 {
		t.Errorf("shifted deadline task = %+v", out[0])
	}
	if out[1].Deadline != 0 {
		t.Errorf("best-effort task gained a deadline: %+v", out[1])
	}
}
