package powerd

import (
	"strings"
	"sync"
	"testing"
	"time"

	"greensched/internal/power"
)

func TestSplitAddr(t *testing.T) {
	for _, tc := range []struct {
		in, network, address string
	}{
		{"unix:/run/powerd.sock", "unix", "/run/powerd.sock"},
		{"/run/powerd.sock", "unix", "/run/powerd.sock"},
		{"tcp:127.0.0.1:9371", "tcp", "127.0.0.1:9371"},
		{"127.0.0.1:9371", "tcp", "127.0.0.1:9371"},
		{"localhost:0", "tcp", "localhost:0"},
	} {
		network, address := SplitAddr(tc.in)
		if network != tc.network || address != tc.address {
			t.Errorf("SplitAddr(%q) = (%q, %q), want (%q, %q)", tc.in, network, address, tc.network, tc.address)
		}
	}
}

// bothNetworks runs fn once per socket family the protocol supports.
func bothNetworks(t *testing.T, fn func(t *testing.T, addr string)) {
	t.Helper()
	t.Run("unix", func(t *testing.T) {
		fn(t, "unix:"+t.TempDir()+"/powerd.sock")
	})
	t.Run("tcp", func(t *testing.T) {
		fn(t, "127.0.0.1:0")
	})
}

func TestServeRoundTrip(t *testing.T) {
	bothNetworks(t, func(t *testing.T, addr string) {
		srv, err := Serve(addr, power.StaticSource{"lean": 80, "hungry": 320}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		cli, err := NewClient(Config{Addr: srv.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()

		for node, want := range map[string]float64{"lean": 80, "hungry": 320} {
			w, ok := cli.NodePowerW(node, nil, nil)
			if !ok || w != want {
				t.Errorf("NodePowerW(%s) = %v, %v; want %v, true", node, w, ok, want)
			}
		}
		w, age, ok := cli.LastReading("lean")
		if !ok || w != 80 || age > 1 {
			t.Errorf("LastReading(lean) = %v, %v, %v", w, age, ok)
		}
		st := cli.Stats()
		if st.Requests < 2 || st.Errors != 0 || st.Fallbacks != 0 {
			t.Errorf("stats %+v", st)
		}
		if srv.Requests() < 2 {
			t.Errorf("server answered %d requests", srv.Requests())
		}
		rd := cli.Readings()
		if len(rd) != 2 || rd[0].Node != "hungry" || rd[1].Node != "lean" {
			t.Errorf("readings %+v", rd)
		}
	})
}

func TestServeCurveModelUtilization(t *testing.T) {
	curve := power.CurveSource{Default: power.LinearModel{IdleW: 100, PeakW: 300}}
	srv, err := Serve("127.0.0.1:0", curve, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Model() != "curve" {
		t.Errorf("model %q, want curve (from ModelName)", srv.Model())
	}
	cli, err := NewClient(Config{Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	idle, ok := cli.NodePowerW("any", nil, nil)
	if !ok || idle != 100 {
		t.Fatalf("idle reading %v, %v", idle, ok)
	}
	busy, ok := cli.NodePowerW("any", []string{power.MetricUtil}, []float64{1})
	if !ok || busy != 300 {
		t.Fatalf("busy reading %v, %v", busy, ok)
	}
}

// TestClientUnknownNodeDoesNotTripBreaker: an application-level "no
// reading for node" reply is authoritative — it must fall back, count
// an error, and NOT open the breaker (the sidecar is alive).
func TestClientUnknownNodeDoesNotTripBreaker(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", power.StaticSource{"known": 50}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := NewClient(Config{
		Addr: srv.Addr(), BreakerAfter: 2, Retries: -1,
		Fallback: power.StaticSource{"ghost": 123},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 5; i++ {
		w, ok := cli.NodePowerW("ghost", nil, nil)
		if !ok || w != 123 {
			t.Fatalf("call %d: got %v, %v; want fallback 123", i, w, ok)
		}
	}
	st := cli.Stats()
	if st.BreakerOpen {
		t.Error("application errors tripped the breaker")
	}
	if st.Errors < 5 || st.Fallbacks < 5 {
		t.Errorf("stats %+v", st)
	}
	// The live node still reads straight through.
	if w, ok := cli.NodePowerW("known", nil, nil); !ok || w != 50 {
		t.Errorf("known node: %v, %v", w, ok)
	}
}

func TestClientStalenessWindow(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", power.StaticSource{"n": 200}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	var mu sync.Mutex
	clock := func() float64 { mu.Lock(); defer mu.Unlock(); return now }
	tick := func(d float64) { mu.Lock(); now += d; mu.Unlock() }
	cli, err := NewClient(Config{
		Addr: srv.Addr(), Timeout: 50 * time.Millisecond, Retries: -1,
		StalenessSec: 5, BreakerAfter: 1, ReprobeSec: 3600,
		Fallback: power.StaticSource{"n": 999},
		Clock:    clock, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if w, ok := cli.NodePowerW("n", nil, nil); !ok || w != 200 {
		t.Fatalf("live reading %v, %v", w, ok)
	}
	srv.Close()

	// Within the staleness window the cached last-good value serves.
	tick(1)
	if w, ok := cli.NodePowerW("n", nil, nil); !ok || w != 200 {
		t.Fatalf("cached reading %v, %v; want 200 from last-good cache", w, ok)
	}
	if st := cli.Stats(); st.CacheHits < 1 {
		t.Errorf("stats %+v: no cache hit recorded", st)
	}
	// Past the window the analytic fallback takes over.
	tick(10)
	if w, ok := cli.NodePowerW("n", nil, nil); !ok || w != 999 {
		t.Fatalf("stale reading %v, %v; want fallback 999", w, ok)
	}
	st := cli.Stats()
	if st.Fallbacks < 1 || st.LastGoodSec < 5 {
		t.Errorf("stats %+v", st)
	}
}

func TestTraceModelTimeKeyed(t *testing.T) {
	m := NewTraceModel()
	m.Add("n", 10, 150)
	m.Add("n", 0, 100) // out of order on purpose
	m.Add("n", 20, 200)

	if _, ok := m.NodePowerW("n", []string{power.MetricTime}, []float64{-1}); ok {
		t.Error("reading before the first sample should miss")
	}
	for _, tc := range []struct{ t, want float64 }{
		{0, 100}, {5, 100}, {10, 150}, {19.9, 150}, {20, 200}, {1e9, 200},
	} {
		w, ok := m.NodePowerW("n", []string{power.MetricTime}, []float64{tc.t})
		if !ok || w != tc.want {
			t.Errorf("t=%v: got %v, %v; want %v", tc.t, w, ok, tc.want)
		}
	}
	// Determinism: the same time always yields the same watts.
	for i := 0; i < 3; i++ {
		if w, _ := m.NodePowerW("n", []string{power.MetricTime}, []float64{10}); w != 150 {
			t.Fatalf("repeat %d: %v", i, w)
		}
	}
	if _, ok := m.NodePowerW("ghost", []string{power.MetricTime}, []float64{10}); ok {
		t.Error("unknown node should miss")
	}
}

func TestTraceModelSequential(t *testing.T) {
	m := NewTraceModel()
	m.Add("n", 0, 1)
	m.Add("n", 1, 2)
	want := []float64{1, 2, 2, 2} // holds the last sample when exhausted
	for i, wv := range want {
		if w, ok := m.NodePowerW("n", nil, nil); !ok || w != wv {
			t.Errorf("pop %d: got %v, %v; want %v", i, w, ok, wv)
		}
	}
}

func TestParseTraceCSV(t *testing.T) {
	m, err := ParseTraceCSV(strings.NewReader(`node,t,watts
# recorded estimator stream
lean, 0, 80
lean, 1, 85
hungry,0,320
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Nodes(); len(got) != 2 || got[0] != "hungry" || got[1] != "lean" {
		t.Fatalf("nodes %v", got)
	}
	if w, ok := m.NodePowerW("lean", []string{power.MetricTime}, []float64{1}); !ok || w != 85 {
		t.Fatalf("lean@1 = %v, %v", w, ok)
	}
	if _, err := ParseTraceCSV(strings.NewReader("lean,notanumber,80\n")); err == nil {
		t.Error("bad time parsed")
	}
	if _, err := ParseTraceCSV(strings.NewReader("just,two\n")); err == nil {
		t.Error("two-column line parsed")
	}
	if _, err := ParseTraceCSV(strings.NewReader("# empty\n")); err == nil {
		t.Error("empty trace parsed")
	}
	if _, err := ParseTraceCSV(strings.NewReader("lean,0,80\nlean,1,-5\n")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("negative reading: error %v, want one naming line 2", err)
	}
}

// TestClientConcurrent hammers one client from many goroutines while
// the sidecar dies mid-run — the -race shape of the live SED stack
// polling power sources from every execution slot.
func TestClientConcurrent(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", power.StaticSource{"a": 10, "b": 20}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(Config{
		Addr: srv.Addr(), Timeout: 50 * time.Millisecond, Retries: -1,
		BreakerAfter: 2, ReprobeSec: 0.01, StalenessSec: 0.001,
		Fallback: power.StaticSource{"a": 11, "b": 21},
		Logf:     func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := []string{"a", "b"}[g%2]
			for i := 0; i < 40; i++ {
				if _, ok := cli.NodePowerW(node, nil, nil); !ok {
					t.Errorf("reading %s lost entirely (fallback must always answer)", node)
					return
				}
				if i == 20 && g == 0 {
					srv.Close() // killed mid-run
				}
			}
		}()
	}
	wg.Wait()
	if st := cli.Stats(); st.Requests == 0 {
		t.Errorf("stats %+v", st)
	}
}
