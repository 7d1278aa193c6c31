package experiments

import (
	"bytes"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestDurableStudy is the acceptance drill: a master killed mid-run
// (one request leased to a SED, one parked in a carbon window) loses
// nothing — the restarted incarnation's books are byte-equal to the
// uninterrupted control run's, the orphaned lease is redone on a
// different SED, and the journal drains to zero pending — on both
// transports.
func TestDurableStudy(t *testing.T) {
	cfg := DefaultDurableConfig()
	cfg.Dir = t.TempDir()
	res, err := RunDurableStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(res.Runs))
	}
	wantCompleted := cfg.Interactive + 1 + cfg.Batch
	for _, transport := range []string{LiveTransportInProcess, LiveTransportTCP} {
		run, ok := byTransport(res.Runs, transport)
		if !ok {
			t.Fatalf("no %s run", transport)
		}
		c, i := run.Control, run.Interrupted

		// Zero lost admitted requests: the restarted master's counters
		// equal the uninterrupted run's.
		if i.Submitted != c.Submitted || i.Completed != c.Completed ||
			i.Rejected != c.Rejected || i.Failed != 0 || c.Failed != 0 {
			t.Errorf("%s: interrupted counters %+v != control %+v", transport, i, c)
		}
		if c.Completed != wantCompleted {
			t.Errorf("%s: control completed %d, want %d", transport, c.Completed, wantCompleted)
		}
		if c.Rejected != cfg.Hopeless {
			t.Errorf("%s: control rejected %d, want %d", transport, c.Rejected, cfg.Hopeless)
		}

		// Exactly-once books: dollars equal the mix-implied total in
		// both runs, hence each other, to float exactness.
		if c.SLA == nil || i.SLA == nil {
			t.Fatalf("%s: missing SLA summary", transport)
		}
		if math.Abs(c.SLA.EarnedUSD-run.ExpectedEarnedUSD) > 1e-9 {
			t.Errorf("%s: control earned $%.6f, want $%.6f", transport, c.SLA.EarnedUSD, run.ExpectedEarnedUSD)
		}
		if math.Abs(i.SLA.EarnedUSD-c.SLA.EarnedUSD) > 1e-9 {
			t.Errorf("%s: interrupted earned $%.6f != control $%.6f", transport, i.SLA.EarnedUSD, c.SLA.EarnedUSD)
		}
		wantForfeit := float64(cfg.Hopeless)
		if math.Abs(i.SLA.ForfeitedUSD-wantForfeit) > 1e-9 || math.Abs(c.SLA.ForfeitedUSD-wantForfeit) > 1e-9 {
			t.Errorf("%s: forfeited control $%.4f / interrupted $%.4f, want $%.4f",
				transport, c.SLA.ForfeitedUSD, i.SLA.ForfeitedUSD, wantForfeit)
		}
		if i.SLA.Misses != 0 || c.SLA.Misses != 0 {
			t.Errorf("%s: deadline misses on 60s deadlines (control %d, interrupted %d)",
				transport, c.SLA.Misses, i.SLA.Misses)
		}

		// Exactly-once budget: every attributed joule is metered once.
		checkBudget := func(name string, budgetJ, energyJ float64) {
			if energyJ <= 0 {
				t.Errorf("%s/%s: no attributed energy", transport, name)
			}
			if math.Abs(budgetJ-energyJ) > 1e-6*math.Max(1, energyJ) {
				t.Errorf("%s/%s: budget %.6f J != energy %.6f J", transport, name, budgetJ, energyJ)
			}
		}
		checkBudget("control", c.BudgetSpentJ, c.EnergyJ)
		checkBudget("interrupted", i.BudgetSpentJ, i.EnergyJ)

		// The crash left exactly one leased and one deferred lifecycle.
		if run.LeasedAtCrash != 1 || run.DeferredAtCrash != 1 {
			t.Errorf("%s: crash left %d leased + %d deferred, want 1 + 1",
				transport, run.LeasedAtCrash, run.DeferredAtCrash)
		}

		// Replay: both incompletes re-driven, the lease waited out, the
		// redo landed on a different SED, and nothing failed.
		st := run.Replay
		wantRebooked := cfg.Interactive + (cfg.Batch - 1) + cfg.Hopeless
		if st.Rebooked != wantRebooked {
			t.Errorf("%s: rebooked %d, want %d", transport, st.Rebooked, wantRebooked)
		}
		if st.Resubmitted != 2 || st.LeaseExpired != 1 || st.Redone != 1 || st.Failed != 0 {
			t.Errorf("%s: replay stats %+v, want 2 resubmissions, 1 lease expiry, 1 redo, 0 failures", transport, st)
		}
		if run.RedoFrom == "" || run.RedoTo == "" || run.RedoFrom == run.RedoTo {
			t.Errorf("%s: redo %q -> %q, want a different surviving SED", transport, run.RedoFrom, run.RedoTo)
		}

		// The journal drained: nothing incomplete survives the replay.
		if run.JournalStats.Pending != 0 {
			t.Errorf("%s: %d pending after replay, want 0", transport, run.JournalStats.Pending)
		}
		if run.JournalStats.Appended == 0 || run.JournalStats.BytesTotal == 0 {
			t.Errorf("%s: journal stats %+v, want appended records", transport, run.JournalStats)
		}
	}

	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Durable dispatch", "kill+restart", "redone on"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestDurableStudyClosesJournalsOnError: a drill that fails leaves no
// journal open. Admission must reject its interactive work: 1e12 ops
// take 250 s at 4 GFLOP/s against a 60 s deadline.
func TestDurableStudyClosesJournalsOnError(t *testing.T) {
	fds := func() []string {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot list open files: %v", err)
		}
		var names []string
		for _, e := range entries {
			link, _ := os.Readlink("/proc/self/fd/" + e.Name())
			names = append(names, e.Name()+" -> "+link)
		}
		return names
	}
	cfg := DefaultDurableConfig()
	cfg.Dir = t.TempDir()
	cfg.Ops = 1e12
	fds() // a first listing may open the runtime's own descriptors
	before := fds()
	if _, err := RunDurableStudy(cfg); err == nil {
		t.Fatal("a drill whose interactive work admission rejects succeeded")
	}
	if after := fds(); !slices.Equal(after, before) {
		t.Errorf("open files changed across a failed drill:\nbefore %q\nafter  %q", before, after)
	}
}

// TestDurableConfigValidate covers the config screens.
func TestDurableConfigValidate(t *testing.T) {
	good := DefaultDurableConfig()
	good.Dir = t.TempDir()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for name, mut := range map[string]func(*DurableConfig){
		"no interactive": func(c *DurableConfig) { c.Interactive = 0 },
		"no ops":         func(c *DurableConfig) { c.Ops = 0 },
		"clean>=dirty":   func(c *DurableConfig) { c.DirtyG = c.CleanG },
		"no lease":       func(c *DurableConfig) { c.LeaseTermSec = 0 },
		"no budget":      func(c *DurableConfig) { c.BudgetJ = 0 },
		"no dir":         func(c *DurableConfig) { c.Dir = "" },
	} {
		bad := good
		mut(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
