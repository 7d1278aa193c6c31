package middleware

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"greensched/internal/obs"
	"greensched/internal/sched"
	"greensched/internal/sla"
)

// readSpans parses a span stream back.
func readSpans(t *testing.T, buf *bytes.Buffer) []obs.Span {
	t.Helper()
	spans, err := obs.ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("span stream does not parse: %v", err)
	}
	return spans
}

// spansByTrace groups spans per trace.
func spansByTrace(spans []obs.Span) map[uint64][]obs.Span {
	byTrace := map[uint64][]obs.Span{}
	for _, sp := range spans {
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	return byTrace
}

// TestSpanTreeStitchesAcrossTCP: a live TCP run produces, for every
// request, one span tree whose hop structure is stitched purely by the
// trace context that crossed the gob wire: submit at the root, elect
// and dispatch under it, the SED's own queue/solve spans under
// dispatch, and the transport's dial/encode/decode spans nested where
// the wire was crossed.
func TestSpanTreeStitchesAcrossTCP(t *testing.T) {
	var buf bytes.Buffer
	w := obs.NewSpanWriter(&buf)
	sedNames := map[string]bool{"lean": true, "hungry": true}
	opts := []Option{
		WithPolicy(sched.New(sched.Power)),
		WithSpans(w),
	}
	for name, speed := range map[string]float64{"lean": 2e9, "hungry": 4e9} {
		sed, err := NewSED(SEDConfig{
			Name: name, Slots: 2, Spans: w,
			Interceptors: []Interceptor{&MeterInterceptor{Meter: func() (float64, bool) { return 100, true }}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sed.Register(burnService(speed)); err != nil {
			t.Fatal(err)
		}
		ep, err := Serve("127.0.0.1:0", sed, sed)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		rem := Dial(name, ep.Addr())
		rem.SetSpans(w)
		defer rem.Close()
		opts = append(opts, withSEDs(rem))
	}
	m, err := NewMaster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := m.Do(context.Background(), Request{Service: "burn", Ops: 1e6}); err != nil {
			t.Fatal(err)
		}
	}

	byTrace := spansByTrace(readSpans(t, &buf))
	if len(byTrace) != n {
		t.Fatalf("%d traces for %d requests", len(byTrace), n)
	}
	for trace, spans := range byTrace {
		byID := map[uint64]obs.Span{}
		var root obs.Span
		roots := 0
		for _, sp := range spans {
			byID[sp.SpanID] = sp
			if sp.Parent == 0 {
				root, roots = sp, roots+1
			}
		}
		if roots != 1 || root.Name != obs.StageSubmit {
			t.Fatalf("trace %d: %d roots, first %q — want one submit root", trace, roots, root.Name)
		}
		stages := map[string][]obs.Span{}
		for _, sp := range spans {
			stages[sp.Name] = append(stages[sp.Name], sp)
		}
		for _, want := range obs.CanonicalStages {
			if len(stages[want]) == 0 {
				t.Fatalf("trace %d misses stage %q (has %v)", trace, want, stages)
			}
		}
		for _, stage := range []string{obs.StageDial, obs.StageEncode, obs.StageDecode} {
			for _, sp := range stages[stage] {
				if !sedNames[sp.Src] {
					t.Errorf("trace %d: %s span src %q, want a remote name", trace, stage, sp.Src)
				}
				parent, ok := byID[sp.Parent]
				if !ok || (parent.Name != obs.StageDispatch && parent.Name != obs.StageEstimate) {
					t.Errorf("trace %d: %s span parents under %q, want dispatch or estimate", trace, stage, parent.Name)
				}
			}
		}
		dispatch := stages[obs.StageDispatch][0]
		if dispatch.Parent != root.SpanID {
			t.Errorf("trace %d: dispatch parents under %d, want root %d", trace, dispatch.Parent, root.SpanID)
		}
		for _, stage := range []string{obs.StageQueue, obs.StageSolve} {
			sp := stages[stage][0]
			// The SED emitted these itself (shared writer): the source
			// must be the SED's name and the parent the dispatch span
			// that crossed the wire.
			if !sedNames[sp.Src] {
				t.Errorf("trace %d: %s span src %q, want the SED's name", trace, stage, sp.Src)
			}
			if sp.Parent != dispatch.SpanID {
				t.Errorf("trace %d: %s parents under %d, want dispatch %d", trace, stage, sp.Parent, dispatch.SpanID)
			}
		}
		if elect := stages[obs.StageElect][0]; elect.Parent != root.SpanID {
			t.Errorf("trace %d: elect parents under %d, want root %d", trace, elect.Parent, root.SpanID)
		}
	}
}

// TestSpanStreamCarriesLifecycle: the span stream alone tells each
// request's story — the root names the request, its class and (on a
// completion) its attributed energy, elect names the server, and a
// refusal carries its reason on the admission span and the root.
func TestSpanStreamCarriesLifecycle(t *testing.T) {
	var buf bytes.Buffer
	catalog := sla.Catalog{
		"gold":   {Name: "gold", RelDeadlineSec: 60, ValueUSD: 2, Curve: sla.HardDrop{}},
		"doomed": {Name: "doomed", RelDeadlineSec: 0.001, ValueUSD: 1, Curve: sla.HardDrop{}},
	}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "only", 1, 2e9, 100)),
		WithInterceptors(&SLAInterceptor{
			Config:    &sla.Config{Catalog: catalog, Admission: &sla.Admission{Margin: 1}},
			BestFlops: 2e9, // ops 1e8 → best case 50ms ≫ the doomed 1ms deadline
		}),
		WithSpans(obs.NewSpanWriter(&buf)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Do(context.Background(), Request{ID: 7, Service: "burn", Ops: 1e6, Class: "gold"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Do(context.Background(), Request{ID: 8, Service: "burn", Ops: 1e8, Class: "doomed"}); !errors.Is(err, ErrRejected) {
		t.Fatalf("doomed request: %v, want a rejection", err)
	}
	roots := map[string]obs.Span{}
	stages := map[string]map[string]obs.Span{}
	for _, tr := range spansByTrace(readSpans(t, &buf)) {
		byName := map[string]obs.Span{}
		var root obs.Span
		for _, sp := range tr {
			byName[sp.Name] = sp
			if sp.Parent == 0 {
				root = sp
			}
		}
		roots[root.Attrs["id"]] = root
		stages[root.Attrs["id"]] = byName
	}
	done, refused := roots["7"], roots["8"]
	if done.Err != "" || done.Attrs["class"] != "gold" || done.Attrs["service"] != "burn" ||
		done.Attrs["energy_j"] == "" || done.Attrs["energy_j"] == "0" {
		t.Errorf("completed root = %+v", done)
	}
	if s := stages["7"][obs.StageElect].Attrs["server"]; s != "only" {
		t.Errorf("elect span names server %q, want only", s)
	}
	if refused.Err == "" || refused.Attrs["class"] != "doomed" || refused.Attrs["energy_j"] != "" {
		t.Errorf("rejected root = %+v", refused)
	}
	if adm := stages["8"][obs.StageAdmission]; adm.Err != refused.Err {
		t.Errorf("admission span err %q, root err %q", adm.Err, refused.Err)
	}
}

// TestSpanEmissionConcurrent hammers one shared SpanWriter from two
// masters (in-process and TCP transports) under concurrent submission;
// run with -race, and the merged stream must still parse line by line.
func TestSpanEmissionConcurrent(t *testing.T) {
	var buf bytes.Buffer
	w := obs.NewSpanWriter(&buf)

	inproc, err := NewMaster(
		WithName("inproc"),
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "local", 4, 4e9, 100)),
		WithSpans(w),
	)
	if err != nil {
		t.Fatal(err)
	}

	far := newSED(t, "far", 4, 4e9, 100)
	ep, err := Serve("127.0.0.1:0", far, far)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	rem := Dial("far", ep.Addr())
	rem.SetSpans(w)
	defer rem.Close()
	tcp, err := NewMaster(
		WithName("tcp"),
		WithPolicy(sched.New(sched.Power)),
		withSEDs(rem),
		WithSpans(w),
	)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for _, m := range []*Master{inproc, tcp} {
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(m *Master) {
				defer wg.Done()
				if _, err := m.Do(context.Background(), Request{Service: "burn", Ops: 1e5}); err != nil {
					errs <- err
				}
			}(m)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	spans := readSpans(t, &buf)
	byTrace := spansByTrace(spans)
	if len(byTrace) != 32 {
		t.Fatalf("%d traces for 32 requests", len(byTrace))
	}
	seen := map[uint64]bool{}
	for _, sp := range spans {
		if sp.TraceID == 0 || sp.SpanID == 0 {
			t.Fatalf("span without identity: %+v", sp)
		}
		if seen[sp.SpanID] {
			t.Fatalf("span ID %d reused", sp.SpanID)
		}
		seen[sp.SpanID] = true
	}
}

// TestSpanTransportFaultTerminates: a connection dropped mid-solve
// still terminates the request's span tree — the dispatch and root
// spans carry the transport error instead of dangling open.
func TestSpanTransportFaultTerminates(t *testing.T) {
	var buf bytes.Buffer
	w := obs.NewSpanWriter(&buf)
	release := make(chan struct{})
	defer close(release)
	sed := newSED(t, "doomed", 1, 2e9, 100)
	sed.Register(Service{Name: "slow", Solve: func(ctx context.Context, _ Request) ([]byte, error) {
		select {
		case <-release:
			return []byte("late"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	ep, err := Serve("127.0.0.1:0", sed, sed)
	if err != nil {
		t.Fatal(err)
	}
	rem := Dial("doomed", ep.Addr())
	rem.SetSpans(w)
	defer rem.Close()
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(rem),
		WithSpans(w),
	)
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		time.Sleep(100 * time.Millisecond) // let the solve get in flight
		ep.Close()
	}()
	_, err = m.Do(context.Background(), Request{Service: "slow", Ops: 1e6})
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("dropped connection err = %v, want ErrTransport", err)
	}

	var dispatch, root *obs.Span
	for _, sp := range readSpans(t, &buf) {
		sp := sp
		switch sp.Name {
		case obs.StageDispatch:
			dispatch = &sp
		case obs.StageSubmit:
			root = &sp
		}
	}
	if dispatch == nil || dispatch.Err == "" {
		t.Fatalf("dispatch span = %+v, want terminated with the transport error", dispatch)
	}
	if root == nil || root.Err == "" {
		t.Fatalf("root span = %+v, want terminated with the transport error", root)
	}
}

// TestRemoteStatsFleetCoverage: the wireStats frame carries a remote
// daemon's stats snapshot to Remote.Stats, Master.SEDStats covers the
// remote, and one master scrape exposes the fleet's greensched_sed_*
// series without any per-SED listener.
func TestRemoteStatsFleetCoverage(t *testing.T) {
	far := newSED(t, "far", 2, 2e9, 100)
	ep, err := Serve("127.0.0.1:0", far, far)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	rem := Dial("far", ep.Addr())
	defer rem.Close()

	obsIC := &ObsInterceptor{Labels: map[string]string{"transport": "tcp"}}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "near", 2, 2e9, 200)),
		withSEDs(rem),
		WithInterceptors(obsIC),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := m.Do(context.Background(), Request{Service: "burn", Ops: 1e6}); err != nil {
			t.Fatal(err)
		}
	}

	st, err := rem.Stats()
	if err != nil {
		t.Fatalf("remote stats: %v", err)
	}
	if st.Name != "far" || st.Completed == 0 {
		t.Fatalf("remote stats = %+v, want far with completions", st)
	}

	fleet := m.SEDStats()
	if len(fleet) != 2 || fleet[0].Name != "far" || fleet[1].Name != "near" {
		t.Fatalf("fleet stats = %+v, want [far near]", fleet)
	}
	total := fleet[0].Completed + fleet[1].Completed
	if total != 4 {
		t.Fatalf("fleet completions = %d, want 4", total)
	}

	samples := scrape(t, obsIC.Metrics())
	for _, sed := range []string{"far", "near"} {
		if _, ok := samples.Value("greensched_sed_completed_total", "transport=tcp", "sed="+sed); !ok {
			t.Errorf("greensched_sed_completed_total{sed=%s} missing from the master scrape", sed)
		}
		if _, ok := samples.Value("greensched_sed_power_watts", "transport=tcp", "sed="+sed); !ok {
			t.Errorf("greensched_sed_power_watts{sed=%s} missing from the master scrape", sed)
		}
	}
	got, _ := samples.Value("greensched_sed_completed_total", "sed=far")
	want := float64(fleet[0].Completed)
	if got != want {
		t.Errorf("scraped far completions = %v, want %v", got, want)
	}

	// An unreachable daemon is skipped, not an error.
	ep.Close()
	rem.Close()
	fleet = m.SEDStats()
	if len(fleet) != 1 || fleet[0].Name != "near" {
		t.Fatalf("fleet stats after daemon death = %+v, want [near]", fleet)
	}
}

// TestStageHistogramSelfScrape: with an ObsInterceptor registry in the
// stack, every lifecycle stage feeds greensched_stage_seconds even
// without a span writer, and the served /metrics carries the stage
// histograms next to the Go runtime collector's process gauges.
func TestStageHistogramSelfScrape(t *testing.T) {
	obsIC := &ObsInterceptor{Labels: map[string]string{"transport": "inproc"}}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "only", 2, 2e9, 100)),
		WithInterceptors(obsIC),
		WithMetricsAddr("127.0.0.1:0"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := m.Do(context.Background(), Request{Service: "burn", Ops: 1e6}); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get("http://" + m.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("served exposition does not parse: %v", err)
	}
	for _, stage := range obs.CanonicalStages {
		got, ok := samples.Value("greensched_stage_seconds_count", "src=master", "stage="+stage)
		if !ok || got != n {
			t.Errorf("stage_seconds_count{stage=%s} = %v ok=%v, want %d", stage, got, ok, n)
		}
	}
	if got, ok := samples.Value("greensched_go_goroutines"); !ok || got <= 0 {
		t.Errorf("greensched_go_goroutines = %v ok=%v, want > 0", got, ok)
	}
	if _, ok := samples.Value("greensched_go_heap_bytes"); !ok {
		t.Error("greensched_go_heap_bytes missing from the served scrape")
	}
}

// TestStageHistogramCountsEveryStage: on a traced one-level in-process
// tree, each of the eight stages the master and its root agent time —
// the root agent's estimate included — reaches greensched_stage_seconds
// once per request.
func TestStageHistogramCountsEveryStage(t *testing.T) {
	var buf bytes.Buffer
	obsIC := &ObsInterceptor{}
	m, err := NewMaster(
		WithPolicy(sched.New(sched.Power)),
		withSEDs(newSED(t, "a", 2, 2e9, 100), newSED(t, "b", 2, 2e9, 200)),
		WithInterceptors(obsIC),
		WithSpans(obs.NewSpanWriter(&buf)),
	)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := m.Do(context.Background(), Request{Service: "burn", Ops: 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	samples := scrape(t, obsIC.Metrics())
	for _, stage := range []string{obs.StageSubmit, obs.StageAdmission, obs.StageElect, obs.StageEstimate,
		obs.StageDispatch, obs.StageQueue, obs.StageSolve, obs.StageReply} {
		got, ok := samples.Value("greensched_stage_seconds_count", "src=master", "stage="+stage)
		if !ok || got != n {
			t.Errorf("stage_seconds_count{stage=%s} = %v ok=%v, want %d", stage, got, ok, n)
		}
	}
}
