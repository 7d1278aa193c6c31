package middleware

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"greensched/internal/estvec"
	"greensched/internal/journal"
	"greensched/internal/sched"
	"greensched/internal/sla"
)

// stallService blocks until release is closed (or the request context
// dies) — the in-process stand-in for an executor that is mid-compute
// when the master crashes.
func stallService(release <-chan struct{}, started chan<- uint64) Service {
	return Service{
		Name: "stall",
		Solve: func(ctx context.Context, req Request) ([]byte, error) {
			select {
			case started <- req.ID:
			default:
			}
			select {
			case <-release:
				return []byte("done"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
}

// rebookProbe records every Rebook call Replay makes.
type rebookProbe struct {
	BaseInterceptor
	mu   sync.Mutex
	recs []RequestRecord
}

func (p *rebookProbe) Rebook(rec RequestRecord) {
	p.mu.Lock()
	p.recs = append(p.recs, rec)
	p.mu.Unlock()
}

// TestJournalReplayKillRestart is the crash drill at the middleware
// layer: a journaled master completes work, then dies (Abandon — the
// in-process kill -9) with one request leased to a SED. A fresh master
// over the same file must rebook every settled outcome exactly once,
// wait out the orphaned lease, and redo the leased request on a
// DIFFERENT SED — ending with the counters of an uninterrupted run and
// no ID collisions for post-restart traffic.
func TestJournalReplayKillRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j1, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan uint64, 1)
	sedA := newSED(t, "sed-a", 2, 1e9, 100)
	sedB := newSED(t, "sed-b", 2, 1e9, 100)
	if err := sedA.Register(stallService(release, started)); err != nil {
		t.Fatal(err)
	}
	if err := sedB.Register(stallService(release, started)); err != nil {
		t.Fatal(err)
	}
	m1, err := NewMaster(
		WithPolicy(sched.New(sched.LeastLoaded)),
		withSEDs(sedA, sedB),
		WithJournal(j1),
		WithLeaseTerm(150*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}

	const settled = 5
	for i := 0; i < settled; i++ {
		if _, err := m1.Submit(context.Background(), "burn", 1e6, 0.5, nil); err != nil {
			t.Fatalf("warm request %d: %v", i, err)
		}
	}

	ctx1, crash := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m1.Submit(ctx1, "stall", 1e6, 0.5, nil)
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("stall request never reached a SED")
	}
	// Crash: the journal handle dies first (no settle can land), then
	// the in-flight lifecycle is torn down.
	j1.Abandon()
	crash()
	wg.Wait()
	close(release)

	// Restart over the same file.
	j2, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := len(j2.Pending()); got != 1 {
		t.Fatalf("pending after crash = %d, want 1", got)
	}
	orphan := j2.Pending()[0]
	if orphan.State != journal.StateLeased || orphan.SED == "" {
		t.Fatalf("orphan entry = %+v, want a leased entry with an owner", orphan)
	}
	if got := len(j2.Settled()); got != settled {
		t.Fatalf("settled after crash = %d, want %d", got, settled)
	}

	var mu sync.Mutex
	var elected []string
	probe := &rebookProbe{}
	sedA2 := newSED(t, "sed-a", 2, 1e9, 100)
	sedB2 := newSED(t, "sed-b", 2, 1e9, 100)
	if err := sedA2.Register(stallService(release, nil)); err != nil {
		t.Fatal(err)
	}
	if err := sedB2.Register(stallService(release, nil)); err != nil {
		t.Fatal(err)
	}
	m2, err := NewMaster(
		WithPolicy(sched.New(sched.LeastLoaded)),
		withSEDs(sedA2, sedB2),
		WithJournal(j2),
		WithInterceptors(probe, &HookInterceptor{
			OnElectFunc: func(_ float64, _ Request, server string, _ estvec.List) {
				mu.Lock()
				elected = append(elected, server)
				mu.Unlock()
			},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}

	st, err := m2.Replay(context.Background())
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if st.Rebooked != settled {
		t.Fatalf("Rebooked = %d, want %d", st.Rebooked, settled)
	}
	if st.Resubmitted != 1 || st.LeaseExpired != 1 || st.Redone != 1 || st.Failed != 0 {
		t.Fatalf("replay stats = %+v, want 1 resubmission redone after its lease expired", st)
	}
	if len(probe.recs) != settled {
		t.Fatalf("Rebook calls = %d, want %d (settled outcomes rebook exactly once)", len(probe.recs), settled)
	}
	for _, rec := range probe.recs {
		if rec.Err != nil || rec.EnergyJ <= 0 {
			t.Fatalf("rebooked record = %+v, want a completed outcome with energy", rec)
		}
	}
	mu.Lock()
	replayElected := append([]string(nil), elected...)
	mu.Unlock()
	if len(replayElected) != 1 {
		t.Fatalf("elections during replay = %v, want exactly one", replayElected)
	}
	if replayElected[0] == orphan.SED {
		t.Fatalf("redo elected %q, the SED holding the expired lease — must pick a different one", replayElected[0])
	}
	if got := len(j2.Pending()); got != 0 {
		t.Fatalf("pending after replay = %d, want 0", got)
	}

	// The restarted master's books read like an uninterrupted run's.
	res := m2.Finalize()
	if res.Submitted != settled+1 || res.Completed != settled+1 || res.Failed != 0 || res.Rejected != 0 {
		t.Fatalf("restarted result = %+v, want %d submitted and completed", res, settled+1)
	}

	// Post-restart traffic must not collide with journaled IDs: its
	// admission has to raise the journal's high-water mark.
	maxBefore := j2.MaxID()
	if _, err := m2.Submit(context.Background(), "burn", 1e6, 0.5, nil); err != nil {
		t.Fatal(err)
	}
	if j2.MaxID() <= maxBefore {
		t.Fatalf("journal max ID %d did not advance past %d — new traffic reused a journaled ID", j2.MaxID(), maxBefore)
	}
}

// TestReplayDeferredDoesNotBlockStartup: a deferred entry recovered
// against a STILL-DIRTY grid re-parks in the carbon interceptor — in
// the background. Replay (and so master startup) must return without
// waiting out the window; ReplayWait drains the park once it clears.
func TestReplayDeferredDoesNotBlockStartup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j1, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Admit(journal.Record{ID: 3, Service: "burn", Ops: 1e6, Pref: 0.5, Deferrable: true}); err != nil {
		t.Fatal(err)
	}
	if err := j1.Defer(3); err != nil {
		t.Fatal(err)
	}
	j1.Abandon()

	j2, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var dirty atomic.Bool
	dirty.Store(true)
	m, err := NewMaster(
		WithPolicy(sched.New(sched.LeastLoaded)),
		withSEDs(newSED(t, "sed", 2, 1e9, 100)),
		WithJournal(j2),
		WithInterceptors(&CarbonInterceptor{
			Signal: feedSignal{g: func() float64 {
				if dirty.Load() {
					return 1000
				}
				return 0
			}},
			DirtyG: 100, MaxDeferSec: 300, PollSec: 0.005,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	st, err := m.Replay(context.Background())
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Replay blocked %v behind a dirty grid", took)
	}
	if st.Resubmitted != 1 || st.Failed != 0 {
		t.Fatalf("replay stats = %+v, want 1 background resubmission", st)
	}

	// The replayed request is parked behind the dirty window, its
	// lifecycle still incomplete in the journal.
	deadline := time.Now().Add(5 * time.Second)
	for m.Deferred().Parked == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := m.Deferred().Parked; got != 1 {
		t.Fatalf("parked = %d, want the replayed deferrable re-parked", got)
	}
	if got := len(j2.Pending()); got != 1 {
		t.Fatalf("pending during park = %d, want 1", got)
	}

	// The window clears: the background replay settles and drains.
	dirty.Store(false)
	wctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.ReplayWait(wctx); err != nil {
		t.Fatalf("ReplayWait: %v", err)
	}
	if got := len(j2.Pending()); got != 0 {
		t.Fatalf("pending after drain = %d, want 0", got)
	}
	res := m.Finalize()
	if res.Completed != 1 || res.Failed != 0 {
		t.Fatalf("result = %+v, want the deferred replay completed", res)
	}
}

// TestJournalAdmissionRejectionSettles checks a rejection is a
// terminal journal state: nothing incomplete survives it, so a crash
// right after an admission refusal replays nothing.
func TestJournalAdmissionRejectionSettles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	reject := &testHooks{OnSubmitFunc: func(_ context.Context, _ float64, req *Request) error {
		return fmt.Errorf("%w: request %d: test says no", ErrRejected, req.ID)
	}}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.LeastLoaded)),
		withSEDs(newSED(t, "sed", 1, 1e9, 100)),
		WithJournal(j),
		WithInterceptors(reject),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), "burn", 1e6, 0.5, nil); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if got := len(j.Pending()); got != 0 {
		t.Fatalf("pending = %d, want 0 (rejection must settle the entry)", got)
	}
	// Settled() only reports entries terminal at Open; reopen to see
	// the on-disk fold of this run's rejection.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	s := j2.Settled()
	if len(s) != 1 || s[0].State != journal.StateRejected {
		t.Fatalf("settled = %+v, want one rejected entry", s)
	}
}

// TestJournalReplayRejectionNotFailed: an incomplete request that the
// restarted master's admission refuses counts as a replayed rejection,
// not a replay failure — admission re-screened it, by design.
func TestJournalReplayRejectionNotFailed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j1, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Admit(journal.Record{ID: 7, Service: "burn", Ops: 1e6, Pref: 0.5}); err != nil {
		t.Fatal(err)
	}
	j1.Abandon()

	j2, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	reject := &testHooks{OnSubmitFunc: func(_ context.Context, _ float64, req *Request) error {
		return fmt.Errorf("%w: request %d: no capacity", ErrRejected, req.ID)
	}}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.LeastLoaded)),
		withSEDs(newSED(t, "sed", 1, 1e9, 100)),
		WithJournal(j2),
		WithInterceptors(reject),
	)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Replay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Resubmitted != 1 || st.Failed != 0 {
		t.Fatalf("replay stats = %+v, want one resubmission and zero failures", st)
	}
	if got := len(j2.Pending()); got != 0 {
		t.Fatalf("pending after replay = %d, want 0", got)
	}
}

// TestPostAdmissionRejectionBooksAgree: a service that refuses a request
// after admission (an error wrapping ErrRejected) is one rejection on
// every book — the master's counters, the SLA ledger, the obs counters,
// the journal — and on a master restarted from that journal.
func TestPostAdmissionRejectionBooksAgree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	start := func(j *journal.Journal) (*Master, *ObsInterceptor) {
		sed := newSED(t, "sed", 1, 1e9, 100)
		if err := sed.Register(Service{Name: "quota", Solve: func(context.Context, Request) ([]byte, error) {
			return nil, fmt.Errorf("%w: over quota", ErrRejected)
		}}); err != nil {
			t.Fatal(err)
		}
		obsIC := &ObsInterceptor{}
		m, err := NewMaster(
			WithPolicy(sched.New(sched.LeastLoaded)),
			withSEDs(sed),
			WithJournal(j),
			WithInterceptors(obsIC, &SLAInterceptor{Config: &sla.Config{}}),
		)
		if err != nil {
			t.Fatal(err)
		}
		return m, obsIC
	}
	agree := func(label string, res *LiveResult) {
		t.Helper()
		if res.Rejected != 1 || res.Failed != 0 {
			t.Errorf("%s master: rejected=%d failed=%d, want 1 and 0", label, res.Rejected, res.Failed)
		}
		if res.SLA == nil || res.SLA.Rejected != 1 || res.SLA.Failed != 0 {
			t.Errorf("%s SLA ledger: %+v, want one rejection and no failure", label, res.SLA)
		}
	}

	j1, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m1, obs1 := start(j1)
	if _, err := m1.Submit(context.Background(), "quota", 1e6, 0.5, nil); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	agree("live", m1.Finalize())
	samples := scrape(t, obs1.Metrics())
	rejections, _ := samples.Value("greensched_rejections_total")
	failures, _ := samples.Value("greensched_failures_total")
	if rejections != 1 || failures != 0 {
		t.Errorf("obs counters: rejections=%v failures=%v, want 1 and 0", rejections, failures)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if s := j2.Settled(); len(s) != 1 || s[0].State != journal.StateRejected {
		t.Fatalf("settled = %+v, want one rejected entry", s)
	}
	m2, _ := start(j2)
	if _, err := m2.Replay(context.Background()); err != nil {
		t.Fatal(err)
	}
	agree("restarted", m2.Finalize())
}
