package middleware

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"greensched/internal/cluster"
	"greensched/internal/sched"
)

// The fleet builder: one platform, either transport, one closer per
// master. Events are ordered by the calls themselves or by polling the
// state they change; time only bounds a wait.

func fleetPlatform() *cluster.Platform {
	return &cluster.Platform{Nodes: []cluster.NodeSpec{
		{Name: "lean", Cores: 2, FlopsPerCore: 1e9, PeakW: 80},
		{Name: "hungry", Cores: 2, FlopsPerCore: 4e9, PeakW: 320},
	}}
}

func newTestFleet(t *testing.T, tcp bool) *Fleet {
	t.Helper()
	f, err := NewFleet(FleetSpec{Platform: fleetPlatform(), TCP: tcp})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func transportName(tcp bool) string {
	if tcp {
		return "tcp"
	}
	return "in-process"
}

// await polls cond until it holds, failing the test after guard.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(guard)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestFleetTransportsAgree: one request sequence over an in-process and
// a TCP fleet elects the same SEDs, and each books, per completion, its
// node's PeakW/Cores times the execution seconds the response carries.
// POWER elects on the constant meters alone, so no timing can reorder
// it.
func TestFleetTransportsAgree(t *testing.T) {
	nodes := map[string]cluster.NodeSpec{}
	for _, n := range fleetPlatform().Nodes {
		nodes[n.Name] = n
	}
	var elected [2][]string
	for i, tcp := range []bool{false, true} {
		d, err := newTestFleet(t, tcp).Deploy(WithPolicy(sched.New(sched.Power)))
		if err != nil {
			t.Fatal(err)
		}
		var wantJ float64
		for range 6 {
			resp, err := d.Do(context.Background(), Request{Service: "compute", Ops: 1e6})
			if err != nil {
				t.Fatalf("%s: %v", transportName(tcp), err)
			}
			elected[i] = append(elected[i], resp.Server)
			n := nodes[resp.Server]
			if j := n.PeakW * resp.ExecSec / float64(n.Cores); resp.EnergyJ != j || j <= 0 {
				t.Errorf("%s: %s booked %v J for %v s, want %v", transportName(tcp), resp.Server, resp.EnergyJ, resp.ExecSec, j)
			}
			wantJ += resp.EnergyJ
		}
		if res := d.Finalize(); res.Completed != 6 || res.EnergyJ != wantJ {
			t.Errorf("%s: books %d completions, %v J; want 6, %v J", transportName(tcp), res.Completed, res.EnergyJ, wantJ)
		}
		if err := d.Close(); err != nil {
			t.Error(err)
		}
	}
	if len(elected[0]) != len(elected[1]) {
		t.Fatalf("elections differ: in-process %v, tcp %v", elected[0], elected[1])
	}
	for i := range elected[0] {
		if elected[0][i] != elected[1][i] {
			t.Fatalf("elections differ: in-process %v, tcp %v", elected[0], elected[1])
		}
	}
	if elected[0][0] == elected[0][1] {
		t.Errorf("learning phase did not visit both SEDs: %v", elected[0])
	}
}

// TestFleetCloseReleasesTransport: once a TCP deployment's closer has
// run, its endpoints refuse connections and every goroutine it started
// has ended, including those of a Deploy that failed.
func TestFleetCloseReleasesTransport(t *testing.T) {
	base := runtime.NumGoroutine()
	f := newTestFleet(t, true)
	if _, err := f.Deploy(); err == nil {
		t.Fatal("a master without a policy deployed")
	}
	d, err := f.Deploy(WithPolicy(sched.New(sched.GreenPerf)))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Addrs) != 2 {
		t.Fatalf("addresses %v, want one per SED", d.Addrs)
	}
	for range 3 {
		if _, err := d.Do(context.Background(), Request{Service: "compute", Ops: 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, addr := range d.Addrs {
		if conn, err := net.Dial("tcp", addr); err == nil {
			conn.Close()
			t.Errorf("endpoint %s still accepts after Close", addr)
		}
	}
	await(t, "the deployment's goroutines to end", func() bool { return runtime.NumGoroutine() <= base })
}

// TestFleetRedeploy: a second master over the same SEDs serves after the
// first has closed — the durable drill's restart — and reaches the very
// SEDs the first used.
func TestFleetRedeploy(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		f := newTestFleet(t, tcp)
		for incarnation := 1; incarnation <= 2; incarnation++ {
			d, err := f.Deploy(WithPolicy(sched.New(sched.GreenPerf)))
			if err != nil {
				t.Fatal(err)
			}
			for range 2 {
				if _, err := d.Do(context.Background(), Request{Service: "compute", Ops: 1e6}); err != nil {
					t.Fatalf("%s incarnation %d: %v", transportName(tcp), incarnation, err)
				}
			}
			done := uint64(0)
			for _, st := range d.SEDStats() {
				done += st.Completed
			}
			if want := uint64(2 * incarnation); done != want {
				t.Errorf("%s incarnation %d: SEDs completed %d, want %d", transportName(tcp), incarnation, done, want)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFleetComputeCancel: cancelling a request while the built-in
// compute service sleeps ends it with context.Canceled on both
// transports, and frees the SED's slot.
func TestFleetComputeCancel(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		d, err := newTestFleet(t, tcp).Deploy(WithPolicy(sched.New(sched.GreenPerf)))
		if err != nil {
			t.Fatal(err)
		}
		inFlight := func() int {
			n := 0
			for _, st := range d.SEDStats() {
				n += st.InFlight
			}
			return n
		}
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := d.Do(ctx, Request{Service: "compute", Ops: 1e15}) // days of sleep
			errc <- err
		}()
		await(t, "the request to start computing", func() bool { return inFlight() == 1 })
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled compute returned %v, want context.Canceled", transportName(tcp), err)
		}
		await(t, "the SED to free its slot", func() bool { return inFlight() == 0 })
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetRefusesBadPlatform: a missing, empty or invalid platform
// builds no fleet.
func TestFleetRefusesBadPlatform(t *testing.T) {
	dup := fleetPlatform()
	dup.Nodes[1].Name = dup.Nodes[0].Name
	noCores := fleetPlatform()
	noCores.Nodes[0].Cores = 0
	noFlops := fleetPlatform()
	noFlops.Nodes[1].FlopsPerCore = 0
	for name, p := range map[string]*cluster.Platform{
		"nil":        nil,
		"empty":      {},
		"duplicate":  dup,
		"no cores":   noCores,
		"zero flops": noFlops,
	} {
		if _, err := NewFleet(FleetSpec{Platform: p}); err == nil {
			t.Errorf("%s platform: fleet built", name)
		}
	}
}
