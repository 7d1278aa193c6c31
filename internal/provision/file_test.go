package provision

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.xml")

	s := NewStore()
	s.Put(Record{Value: 100, Cost: 1.0, Temperature: 22})
	s.Put(Record{Value: 200, Cost: 0.5, Temperature: 23, Candidates: 8})
	s.Put(Record{Value: 300, Cost: 0.5, Temperature: 28, Unexpected: true})
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`<timestamp value="100">`, `<electricity_cost>0.5</electricity_cost>`,
		`unexpected="true"`, `<candidates>8</candidates>`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("saved plan missing %q:\n%s", want, data)
		}
	}

	loaded := readPlan(t, path).Records
	if len(loaded) != 3 {
		t.Fatalf("loaded %d records", len(loaded))
	}
	if rec := loaded[1]; rec.Value != 200 || rec.Candidates != 8 || rec.Cost != 0.5 {
		t.Fatalf("second record = %+v", rec)
	}
	if !loaded[2].Unexpected {
		t.Fatal("unexpected flag lost")
	}
}

// readPlan parses the plan file at path.
func readPlan(t *testing.T, path string) *Plan {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestSaveFileAtomicReplacesExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.xml")
	s := NewStore()
	s.Put(Record{Value: 1, Cost: 1})
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s.Put(Record{Value: 2, Cost: 0.5})
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if n := len(readPlan(t, path).Records); n != 2 {
		t.Fatalf("replacement lost records: %d", n)
	}
	// No temp-file litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the plan", len(entries))
	}
}

func TestSaveFileBadDirectory(t *testing.T) {
	s := NewStore()
	if err := s.SaveFile("/nonexistent-dir-xyz/plan.xml"); err == nil {
		t.Fatal("unwritable directory accepted")
	}
}
