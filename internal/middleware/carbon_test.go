package middleware

import (
	"context"
	"testing"
	"time"

	"greensched/internal/carbon"
	"greensched/internal/estvec"
	"greensched/internal/sched"
)

// feedSignal is a carbon.Signal whose intensity is read from a
// function, so a test can move the grid under a running master.
type feedSignal struct {
	carbon.Constant
	g func() float64
}

func (f feedSignal) IntensityAt(float64) float64 { return f.g() }

func carbonSED(t *testing.T, name string, g float64) *SED {
	t.Helper()
	sed, err := NewSED(SEDConfig{
		Name:         name,
		Slots:        2,
		Interceptors: []Interceptor{&CarbonInterceptor{Signal: carbon.Constant{G: g}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sed.Register(Service{Name: "burn", Solve: func(ctx context.Context, r Request) ([]byte, error) {
		return []byte(name), nil
	}}); err != nil {
		t.Fatal(err)
	}
	return sed
}

// TestSEDReportsCarbonIntensity: a SED with a carbon signal attached
// must publish its site's current intensity in the estimation vector —
// the paper's "new tags" mechanism applied to the grid.
func TestSEDReportsCarbonIntensity(t *testing.T) {
	sed := carbonSED(t, "lyon-0", 215)
	list, err := sed.Estimate(context.Background(), Request{Service: "burn", Ops: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if got := list[0].Value(estvec.TagCarbonIntensity, -1); got != 215 {
		t.Errorf("carbon tag = %v, want 215", got)
	}
}

func TestSEDWithoutCarbonOmitsTag(t *testing.T) {
	sed, err := NewSED(SEDConfig{Name: "plain", Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sed.Register(Service{Name: "burn", Solve: func(ctx context.Context, r Request) ([]byte, error) {
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	list, err := sed.Estimate(context.Background(), Request{Service: "burn"})
	if err != nil {
		t.Fatal(err)
	}
	if list[0].Has(estvec.TagCarbonIntensity) {
		t.Error("SED without a signal must not invent an intensity")
	}
}

// TestLiveSEDElectionFollowsCleanGrid wires two live SEDs to carbon
// signals on different grids: a carbon-weighted election must pick the
// clean site once both servers are measured.
func TestLiveSEDElectionFollowsCleanGrid(t *testing.T) {
	clean := carbonSEDWithSignal(t, "clean", carbon.Constant{G: 40})
	dirty := carbonSEDWithSignal(t, "dirty", carbon.Constant{G: 600})

	// Identical measured behaviour, so only the carbon tag differs.
	seed := func(s *SED) {
		for i := 0; i < 4; i++ {
			if _, err := s.Solve(context.Background(), Request{Service: "burn", Ops: 1e7}); err != nil {
				t.Fatal(err)
			}
		}
	}
	seed(clean)
	seed(dirty)

	ma, err := NewMasterAgent("ma", sched.New(sched.Carbon))
	if err != nil {
		t.Fatal(err)
	}
	ma.Attach(dirty, clean)
	server, list, err := ma.Elect(context.Background(), Request{Service: "burn", Ops: 1e7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("got %d vectors", len(list))
	}
	if server != "clean" {
		t.Errorf("carbon policy elected %s, want clean", server)
	}
}

func carbonSEDWithSignal(t *testing.T, name string, sig carbon.Signal) *SED {
	t.Helper()
	sed, err := NewSED(SEDConfig{
		Name:  name,
		Slots: 2,
		Interceptors: []Interceptor{
			&MeterInterceptor{Meter: func() (float64, bool) { return 150, true }},
			&CarbonInterceptor{Signal: sig},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sed.Register(Service{Name: "burn", Solve: func(ctx context.Context, r Request) ([]byte, error) {
		time.Sleep(time.Millisecond)
		return []byte(name), nil
	}}); err != nil {
		t.Fatal(err)
	}
	return sed
}
