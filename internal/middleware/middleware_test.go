package middleware

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"greensched/internal/estvec"
	"greensched/internal/sched"
)

// burnService pretends to compute: it sleeps proportionally to
// req.Ops at a given speed (flop/s).
func burnService(speed float64) Service {
	return Service{
		Name: "burn",
		Solve: func(ctx context.Context, req Request) ([]byte, error) {
			d := time.Duration(req.Ops / speed * float64(time.Second))
			select {
			case <-time.After(d):
				return []byte("done"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
}

// withSEDs attaches in-process SEDs or remote handles to a test master,
// each registered under its name in the master's directory.
func withSEDs[S interface {
	Child
	Solver
}](nodes ...S) Option {
	return func(c *masterConfig) {
		if c.transport == nil {
			c.transport = NewMapDirectory()
		}
		for _, n := range nodes {
			c.transport.(*MapDirectory).Add(n.Name(), n)
			c.children = append(c.children, n)
		}
	}
}

func newSED(t *testing.T, name string, slots int, speed, watts float64) *SED {
	t.Helper()
	sed, err := NewSED(SEDConfig{
		Name:         name,
		Slots:        slots,
		Interceptors: []Interceptor{&MeterInterceptor{Meter: func() (float64, bool) { return watts, true }}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sed.Register(burnService(speed)); err != nil {
		t.Fatal(err)
	}
	return sed
}

func TestSEDValidation(t *testing.T) {
	if _, err := NewSED(SEDConfig{Name: "", Slots: 1}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewSED(SEDConfig{Name: "x", Slots: 0}); err == nil {
		t.Fatal("zero slots accepted")
	}
	sed, _ := NewSED(SEDConfig{Name: "x", Slots: 1})
	if err := sed.Register(Service{}); err == nil {
		t.Fatal("invalid service accepted")
	}
}

func TestSEDEstimateOnlyForOfferedServices(t *testing.T) {
	sed := newSED(t, "s1", 2, 1e9, 100)
	list, err := sed.Estimate(context.Background(), Request{Service: "burn"})
	if err != nil || len(list) != 1 {
		t.Fatalf("Estimate = %v, %v", list, err)
	}
	list, err = sed.Estimate(context.Background(), Request{Service: "nope"})
	if err != nil || list != nil {
		t.Fatalf("unknown service should yield nil list, got %v, %v", list, err)
	}
}

func TestSEDSolveAndLearn(t *testing.T) {
	sed := newSED(t, "s1", 2, 1e9, 150)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		resp, err := sed.Solve(ctx, Request{ID: uint64(i), Service: "burn", Ops: 2e7})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Server != "s1" || string(resp.Output) != "done" {
			t.Fatalf("resp = %+v", resp)
		}
	}
	if sed.done.Load() != 3 {
		t.Fatalf("Completed = %d", sed.done.Load())
	}
	v := sed.DefaultEstimation(Request{Service: "burn", Ops: 2e7})
	if !v.Bool(estvec.TagKnown) {
		t.Fatal("estimator should be known after 3 requests")
	}
	if got := v.Value(estvec.TagPowerW, 0); got != 150 {
		t.Fatalf("learned power = %v, want 150", got)
	}
	flops := v.Value(estvec.TagFlops, 0)
	if flops < 1e8 || flops > 2e9 {
		t.Fatalf("learned flops = %v, want near 1e9", flops)
	}
}

func TestSEDSolveUnknownService(t *testing.T) {
	sed := newSED(t, "s1", 1, 1e9, 100)
	if _, err := sed.Solve(context.Background(), Request{Service: "nope"}); err == nil {
		t.Fatal("unknown service solved")
	}
}

func TestSEDConcurrencyBound(t *testing.T) {
	sed, _ := NewSED(SEDConfig{Name: "s", Slots: 3})
	var cur, peak atomic.Int64
	sed.Register(Service{
		Name: "track",
		Solve: func(ctx context.Context, req Request) ([]byte, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			cur.Add(-1)
			return nil, nil
		},
	})
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sed.Solve(context.Background(), Request{ID: uint64(i), Service: "track"})
		}(i)
	}
	wg.Wait()
	if got := peak.Load(); got > 3 {
		t.Fatalf("peak concurrency %d exceeded 3 slots", got)
	}
}

func TestSEDContextCancellationWhileQueued(t *testing.T) {
	sed, _ := NewSED(SEDConfig{Name: "s", Slots: 1})
	release := make(chan struct{})
	sed.Register(Service{
		Name: "block",
		Solve: func(ctx context.Context, req Request) ([]byte, error) {
			<-release
			return nil, nil
		},
	})
	go sed.Solve(context.Background(), Request{ID: 1, Service: "block"})
	time.Sleep(10 * time.Millisecond) // occupy the slot
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := sed.Solve(ctx, Request{ID: 2, Service: "block"})
	if err == nil {
		t.Fatal("queued request should fail on context timeout")
	}
	close(release)
}

func buildHierarchy(t *testing.T, policy sched.Policy) (*Master, map[string]*SED) {
	t.Helper()
	// MA over two LAs over two SEDs each — the paper's agent tree.
	seds := map[string]*SED{
		"lean-0":   newSED(t, "lean-0", 2, 2e9, 90),
		"lean-1":   newSED(t, "lean-1", 2, 2e9, 95),
		"hungry-0": newSED(t, "hungry-0", 2, 4e9, 300),
		"hungry-1": newSED(t, "hungry-1", 2, 4e9, 310),
	}
	la1, err := NewAgent("la1", policy, 0)
	if err != nil {
		t.Fatal(err)
	}
	la2, err := NewAgent("la2", policy, 0)
	if err != nil {
		t.Fatal(err)
	}
	la1.Attach(seds["lean-0"], seds["lean-1"])
	la2.Attach(seds["hungry-0"], seds["hungry-1"])
	dir := NewMapDirectory()
	for name, sed := range seds {
		dir.Add(name, sed)
	}
	m, err := NewMaster(WithName("ma"), WithPolicy(policy), WithChildren(la1, la2), WithTransport(dir))
	if err != nil {
		t.Fatal(err)
	}
	return m, seds
}

// prime runs one request through every SED so estimators are known.
func prime(t *testing.T, seds map[string]*SED) {
	t.Helper()
	for _, sed := range seds {
		if _, err := sed.Solve(context.Background(), Request{Service: "burn", Ops: 4e7}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHierarchyElectionFollowsPolicy(t *testing.T) {
	ma, seds := buildHierarchy(t, sched.New(sched.Power))
	prime(t, seds)
	server, list, err := ma.Elect(context.Background(), Request{Service: "burn", Ops: 1e7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if server != "lean-0" {
		t.Fatalf("POWER elected %s, want lean-0", server)
	}
	if len(list) != 4 {
		t.Fatalf("candidate list has %d entries, want 4", len(list))
	}
	// Performance policy prefers the fast nodes.
	ma.SetPolicy(sched.New(sched.Performance))
	server, _, err = ma.Elect(context.Background(), Request{Service: "burn", Ops: 1e7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if server != "hungry-0" && server != "hungry-1" {
		t.Fatalf("PERFORMANCE elected %s, want a hungry node", server)
	}
}

func TestHierarchyUnknownService(t *testing.T) {
	ma, _ := buildHierarchy(t, sched.New(sched.Power))
	if _, _, err := ma.Elect(context.Background(), Request{Service: "missing"}, nil); err == nil {
		t.Fatal("unknown service should error (paper step 1)")
	}
}

func TestClientEndToEnd(t *testing.T) {
	client, seds := buildHierarchy(t, sched.New(sched.Power))
	prime(t, seds)
	resp, err := client.Submit(context.Background(), "burn", 1e7, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Server == "" || string(resp.Output) != "done" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestClientConcurrentSubmissions(t *testing.T) {
	client, seds := buildHierarchy(t, sched.New(sched.GreenPerf))
	prime(t, seds)
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.Submit(context.Background(), "burn", 2e7, 1, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d failed: %v", i, err)
		}
	}
	total := uint64(0)
	for _, sed := range seds {
		total += sed.done.Load()
	}
	if total != 32+4 { // 32 + priming
		t.Fatalf("completed %d, want 36", total)
	}
}

func TestAgentSurvivesFailingChild(t *testing.T) {
	policy := sched.New(sched.Power)
	ma, err := NewMasterAgent("ma", policy)
	if err != nil {
		t.Fatal(err)
	}
	good := newSED(t, "good", 1, 1e9, 100)
	prime(t, map[string]*SED{"good": good})
	ma.Attach(failingChild{}, good)
	server, _, err := ma.Elect(context.Background(), Request{Service: "burn", Ops: 1e7}, nil)
	if err != nil {
		t.Fatalf("healthy subtree should win: %v", err)
	}
	if server != "good" {
		t.Fatalf("elected %s", server)
	}
	// All children failing is an error.
	ma2, _ := NewMasterAgent("ma2", policy)
	ma2.Attach(failingChild{})
	if _, _, err := ma2.Elect(context.Background(), Request{Service: "burn"}, nil); err == nil {
		t.Fatal("all-failed hierarchy should error")
	}
}

type failingChild struct{}

func (failingChild) Name() string { return "dead" }
func (failingChild) Estimate(context.Context, Request) (estvec.List, error) {
	return nil, fmt.Errorf("connection refused")
}

func TestAgentTopKTrim(t *testing.T) {
	policy := sched.New(sched.Power)
	la, err := NewAgent("la", policy, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := newSED(t, "a", 1, 1e9, 100)
	b := newSED(t, "b", 1, 1e9, 50)
	prime(t, map[string]*SED{"a": a, "b": b})
	la.Attach(a, b)
	list, err := la.Estimate(context.Background(), Request{Service: "burn", Ops: 1e7})
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Server != "b" {
		t.Fatalf("topK trim wrong: %v", list)
	}
}

func TestAgentValidation(t *testing.T) {
	if _, err := NewAgent("", sched.New(sched.Power), 0); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewAgent("a", nil, 0); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := NewAgent("a", sched.New(sched.Power), -1); err == nil {
		t.Fatal("negative topK accepted")
	}
}

func TestInactiveSEDNotElected(t *testing.T) {
	ma, seds := buildHierarchy(t, sched.New(sched.Power))
	prime(t, seds)
	seds["lean-0"].SetActive(false)
	seds["lean-1"].SetActive(false)
	server, _, err := ma.Elect(context.Background(), Request{Service: "burn", Ops: 1e7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if server == "lean-0" || server == "lean-1" {
		t.Fatalf("drained SED %s elected", server)
	}
	if !seds["hungry-0"].active.Load() {
		t.Fatal("Active getter wrong")
	}
}

func TestSEDStats(t *testing.T) {
	sed := newSED(t, "stats", 2, 1e9, 120)
	st := sed.Stats()
	if st.Name != "stats" || st.Completed != 0 || st.MeanExecSec != 0 || !st.Active {
		t.Fatalf("fresh stats = %+v", st)
	}
	for i := 0; i < 3; i++ {
		if _, err := sed.Solve(context.Background(), Request{Service: "burn", Ops: 2e7}); err != nil {
			t.Fatal(err)
		}
	}
	st = sed.Stats()
	if st.Completed != 3 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	if st.MeanExecSec <= 0 {
		t.Fatal("MeanExecSec not tracked")
	}
	if st.PowerW != 120 {
		t.Fatalf("learned PowerW = %v", st.PowerW)
	}
	if st.Flops <= 0 || st.GreenPerf <= 0 {
		t.Fatalf("learned estimates missing: %+v", st)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("idle SED reports load: %+v", st)
	}
	sed.SetActive(false)
	if sed.Stats().Active {
		t.Fatal("Active not reflected")
	}
}

func TestGobVectorRoundTrip(t *testing.T) {
	v := estvec.New("s1").Set(estvec.TagFlops, 9e9).Set(estvec.TagPowerW, 222)
	data, err := v.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back estvec.Vector
	if err := back.GobDecode(data); err != nil {
		t.Fatal(err)
	}
	if back.Server != "s1" || back.Value(estvec.TagFlops, 0) != 9e9 {
		t.Fatalf("round trip = %v", back.String())
	}
	var empty estvec.Vector
	data, _ = empty.GobEncode()
	var back2 estvec.Vector
	if err := back2.GobDecode(data); err != nil {
		t.Fatal(err)
	}
	back2.Set(estvec.TagFlops, 1) // decoded empty vector must be usable
}

func TestGobDecodeGarbage(t *testing.T) {
	var v estvec.Vector
	if err := v.GobDecode(bytes.Repeat([]byte{0xff}, 16)); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	policy := sched.New(sched.Power)
	// Two SEDs behind TCP endpoints.
	sedA := newSED(t, "tcp-a", 2, 2e9, 80)
	sedB := newSED(t, "tcp-b", 2, 2e9, 200)
	prime(t, map[string]*SED{"a": sedA, "b": sedB})
	epA, err := Serve("127.0.0.1:0", sedA, sedA)
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := Serve("127.0.0.1:0", sedB, sedB)
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()

	remA := Dial("tcp-a", epA.Addr())
	remB := Dial("tcp-b", epB.Addr())
	defer remA.Close()
	defer remB.Close()

	ma, err := NewMaster(WithName("ma"), WithPolicy(policy), withSEDs(remA, remB))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ma.Submit(context.Background(), "burn", 1e7, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Server != "tcp-a" {
		t.Fatalf("POWER over TCP elected %s, want tcp-a", resp.Server)
	}
	// An agent can itself sit behind TCP.
	epMA, err := Serve("127.0.0.1:0", ma, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer epMA.Close()
	remMA := Dial("ma", epMA.Addr())
	defer remMA.Close()
	list, err := remMA.Estimate(context.Background(), Request{Service: "burn", Ops: 1e7})
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Server != "tcp-a" {
		t.Fatalf("remote agent estimate = %v", list)
	}
	// Solve on a non-solver endpoint errors cleanly.
	if _, err := remMA.Solve(context.Background(), Request{Service: "burn"}); err == nil {
		t.Fatal("solving on an agent endpoint should error")
	}
}

func TestTCPRemoteDialFailure(t *testing.T) {
	rem := Dial("ghost", "127.0.0.1:1") // nothing listens there
	rem.timeout = 200 * time.Millisecond
	if _, err := rem.Estimate(context.Background(), Request{Service: "burn"}); err == nil {
		t.Fatal("dial to dead address should error")
	}
}

func BenchmarkHierarchyElection(b *testing.B) {
	policy := sched.New(sched.GreenPerf)
	ma, _ := NewMasterAgent("ma", policy)
	for i := 0; i < 16; i++ {
		sed, _ := NewSED(SEDConfig{Name: fmt.Sprintf("s%d", i), Slots: 4,
			Interceptors: []Interceptor{&MeterInterceptor{Meter: func() (float64, bool) { return 100, true }}}})
		sed.Register(Service{Name: "burn", Solve: func(ctx context.Context, r Request) ([]byte, error) { return nil, nil }})
		sed.Solve(context.Background(), Request{Service: "burn", Ops: 1e6})
		ma.Attach(sed)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := ma.Elect(context.Background(), Request{Service: "burn", Ops: 1e6}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
