package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRenderGolden locks the exposition format byte for byte: HELP and
// TYPE lines, lexical family and label ordering, histogram triplet,
// value formatting.
func TestRenderGolden(t *testing.T) {
	reg := NewRegistry()
	reqs := reg.CounterVec("fleet_requests_total", "Requests submitted.", "transport")
	reqs.With("tcp").Add(3)
	reqs.With("inproc").Inc()
	inflight := reg.Gauge("fleet_inflight", "Requests in flight.")
	inflight.Set(2)
	h := reg.HistogramVec("fleet_solve_seconds", "Solve latency.", []float64{0.1, 1}).With()
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := reg.Render(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP fleet_inflight Requests in flight.
# TYPE fleet_inflight gauge
fleet_inflight 2
# HELP fleet_requests_total Requests submitted.
# TYPE fleet_requests_total counter
fleet_requests_total{transport="inproc"} 1
fleet_requests_total{transport="tcp"} 3
# HELP fleet_solve_seconds Solve latency.
# TYPE fleet_solve_seconds histogram
fleet_solve_seconds_bucket{le="0.1"} 1
fleet_solve_seconds_bucket{le="1"} 2
fleet_solve_seconds_bucket{le="+Inf"} 3
fleet_solve_seconds_sum 5.55
fleet_solve_seconds_count 3
`
	if got := sb.String(); got != want {
		t.Errorf("rendered exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestLabelEscaping covers the three escaped characters in label
// values and round-trips them through the parser.
func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	v := reg.GaugeVec("esc_gauge", `Help with \ backslash
and newline.`, "path")
	tricky := "a\\b\"c\nd"
	v.With(tricky).Set(1)

	var sb strings.Builder
	if err := reg.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# HELP esc_gauge Help with \\ backslash\nand newline.`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_gauge{path="a\\b\"c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}

	samples, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := samples.Value("esc_gauge", "path="+tricky)
	if !ok || got != 1 {
		t.Errorf("escaped label did not round-trip through the parser: %+v", samples)
	}
}

// TestRegistryConcurrency hammers one registry from concurrent
// goroutines — the interceptor-callback shape — while scraping; run
// under -race this is the data-race regression test the CI race job
// executes.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hammer_total", "")
	g := reg.Gauge("hammer_inflight", "")
	hv := reg.HistogramVec("hammer_seconds", "", []float64{0.5}, "server")

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := hv.With([]string{"a", "b"}[w%2])
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				h.Observe(float64(i%2) * 0.9)
				g.Dec()
			}
		}()
	}
	// Concurrent scrapes while the writers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := reg.Render(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter lost updates: %v != %v", got, workers*perWorker)
	}
	if got := gaugeValue(g); got != 0 {
		t.Errorf("gauge unbalanced: %v", got)
	}
	var total uint64
	for _, lbl := range []string{"a", "b"} {
		total += hv.With(lbl).c.count.Load()
	}
	if total != workers*perWorker {
		t.Errorf("histogram lost observations: %v != %v", total, workers*perWorker)
	}
}

func TestCounterMonotone(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("mono_total", "")
	c.Add(5)
	c.Add(-3) // ignored
	if got := c.Value(); got != 5 {
		t.Errorf("negative Add changed a counter: %v", got)
	}
}

func TestRegistryReuseAndMismatch(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("shared_total", "")
	b := reg.Counter("shared_total", "")
	a.Inc()
	b.Inc()
	if got := a.Value(); got != 2 {
		t.Errorf("re-registration did not share state: %v", got)
	}
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("kind mismatch", func() { reg.Gauge("shared_total", "") })
	assertPanics("label mismatch", func() { reg.CounterVec("shared_total", "", "x") })
	assertPanics("bad name", func() { reg.Counter("0bad", "") })
	assertPanics("bad label", func() { reg.CounterVec("ok_total", "", "0bad") })
	assertPanics("wrong label arity", func() { reg.CounterVec("arity_total", "", "a").With("x", "y") })
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	// Unsorted with duplicate and explicit +Inf: normalized.
	h := reg.HistogramVec("hb_seconds", "", []float64{1, 0.1, 1, math.Inf(1)}).With()
	h.Observe(0.1) // on-boundary lands in le="0.1"
	h.Observe(2)

	var sb strings.Builder
	if err := reg.Render(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		le   string
		want float64
	}{{"0.1", 1}, {"1", 1}, {"+Inf", 2}} {
		if got, ok := samples.Value("hb_seconds_bucket", "le="+tc.le); !ok || got != tc.want {
			t.Errorf("le=%s: got %v ok=%v, want %v", tc.le, got, ok, tc.want)
		}
	}
	if got, _ := samples.Value("hb_seconds_count"); got != 2 {
		t.Errorf("count %v", got)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets %v != %v", got, want)
		}
	}
}

func TestOnScrapeCollector(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("fresh_gauge", "")
	calls := 0
	reg.OnScrape(func() { calls++; g.Set(float64(calls)) })
	var sb strings.Builder
	reg.Render(&sb)
	reg.Render(&sb)
	if calls != 2 {
		t.Errorf("collector ran %d times, want 2", calls)
	}
	if got := gaugeValue(g); got != 2 {
		t.Errorf("gauge %v after two scrapes", got)
	}
}

// gaugeValue returns g's current level.
func gaugeValue(g Gauge) float64 { return math.Float64frombits(g.c.bits.Load()) }
