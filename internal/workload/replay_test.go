package workload

import (
	"math"
	"strings"
	"testing"
)

func TestParseTraceBasic(t *testing.T) {
	in := `# a trace
10,1e9
0,2e9,0.5

5,3e9,-1
`
	tasks, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3 {
		t.Fatalf("len = %d", len(tasks))
	}
	// Sorted and renumbered.
	if tasks[0].Submit != 0 || tasks[1].Submit != 5 || tasks[2].Submit != 10 {
		t.Fatalf("order wrong: %+v", tasks)
	}
	for i, task := range tasks {
		if task.ID != i {
			t.Fatal("IDs not dense")
		}
	}
	if tasks[0].Pref != 0.5 || tasks[1].Pref != -1 || tasks[2].Pref != 0 {
		t.Fatalf("preferences wrong: %+v", tasks)
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []string{
		"",                // empty
		"1\n",             // one field
		"a,1e9\n",         // bad time
		"1,b\n",           // bad ops
		"1,1e9,x\n",       // bad pref
		"1,1e9,0,extra\n", // four fields
		"-1,1e9\n",        // negative submit (Validate)
		"1,0\n",           // zero ops (Validate)
		"1,Inf\n",         // infinite ops (Validate)
		"NaN,1e9\n",       // NaN submit (Validate)
		"1,NaN\n",         // NaN ops (Validate)
		"1,1e9,NaN\n",     // NaN pref (Validate)
		"1,1e9,0,Inf\n",   // infinite deadline (Validate)
		"1,1e9,0,0,NaN\n", // NaN value (Validate)
	}
	for i, in := range cases {
		if _, err := ParseTrace(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: invalid trace accepted: %q", i, in)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	orig, _ := BurstThenRate{Total: 10, Burst: 3, Rate: 2, Ops: 1e9}.Tasks()
	orig[2].Pref = 0.9
	var b strings.Builder
	if err := WriteTrace(&b, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip lost tasks: %d vs %d", len(back), len(orig))
	}
	for i := range orig {
		if back[i].Submit != orig[i].Submit || back[i].Ops != orig[i].Ops || back[i].Pref != orig[i].Pref {
			t.Fatalf("task %d mismatch: %+v vs %+v", i, back[i], orig[i])
		}
	}
}

// FuzzParseTrace feeds arbitrary text to ParseTrace. Whatever it
// accepts must be a finite, valid, Submit-sorted task list with dense
// IDs, and — when WriteTrace can render it — must read back with the
// same submit times, ops, preferences, values and classes.
func FuzzParseTrace(f *testing.F) {
	for _, seed := range []string{
		"# a trace\n10,1e9\n0,2e9,0.5\n\n5,3e9,-1\n",
		"0,1e9\n10,2e9,0.5\n20,3e9,0,600\n30,4e9,-0.5,1800,2.5\n40,5e9,0,0,0.25,interactive\n",
		"  # padded comment\n\n  10 , 1e9 , 0.25  \n",
		"30,3e9\n10,1e9\n10,2e9\n0,9e9\n",
		"0,1e9\n1,Inf\n",
		"0,1e9\nNaN,1e9\n",
		"0,1e9\n1,NaN\n",
		"0,1e9\n1,1e9,0,Inf\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		tasks, err := ParseTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		for i, task := range tasks {
			for _, x := range []float64{task.Submit, task.Ops, float64(task.Pref), task.Deadline, task.Value} {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("task %d has a non-finite field: %+v", i, task)
				}
			}
			if err := task.Validate(); err != nil {
				t.Fatalf("accepted task fails Validate: %v", err)
			}
			if task.ID != i {
				t.Fatalf("task %d has ID %d", i, task.ID)
			}
			if i > 0 && task.Submit < tasks[i-1].Submit {
				t.Fatalf("task %d submitted at %v before task %d at %v", i, task.Submit, i-1, tasks[i-1].Submit)
			}
		}
		var b strings.Builder
		if WriteTrace(&b, tasks) != nil {
			return
		}
		back, err := ParseTrace(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("written trace does not re-parse: %v\n%s", err, b.String())
		}
		if len(back) != len(tasks) {
			t.Fatalf("re-parse kept %d of %d tasks", len(back), len(tasks))
		}
		for i := range tasks {
			a, r := tasks[i], back[i]
			if a.Submit != r.Submit || a.Ops != r.Ops || a.Pref != r.Pref || a.Value != r.Value || a.Class != r.Class {
				t.Fatalf("task %d: %+v re-parsed as %+v", i, a, r)
			}
		}
	})
}
