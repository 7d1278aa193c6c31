package middleware

import (
	"context"
	"testing"

	"greensched/internal/estvec"
	"greensched/internal/sched"
)

// replaceEstimation mounts f as the SED's whole estimation function,
// discarding whatever the stack built below it.
func replaceEstimation(f EstimationFunc) Interceptor {
	return &testHooks{WrapEstimationFunc: func(EstimationFunc) EstimationFunc { return f }}
}

// TestCustomEstimationFunction exercises the paper's plug-in hook:
// "A developer can create his own performance estimation function and
// include it into a SED so that when the SED receives a user request,
// the custom function is called to populate an estimation vector."
func TestCustomEstimationFunction(t *testing.T) {
	calls := 0
	sed, err := NewSED(SEDConfig{
		Name:  "custom",
		Slots: 2,
		Interceptors: []Interceptor{
			replaceEstimation(func(s *SED, req Request) *estvec.Vector {
				calls++
				// Start from the defaults, then overlay a custom tag
				// and a synthetic flops estimate.
				v := s.DefaultEstimation(req)
				v.Set(estvec.Tag("gpu_mem_free_gb"), 11)
				v.Set(estvec.TagFlops, 42e9)
				return v
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sed.Register(Service{Name: "burn", Solve: func(ctx context.Context, r Request) ([]byte, error) {
		return nil, nil
	}})
	list, err := sed.Estimate(context.Background(), Request{Service: "burn", Ops: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("custom estimation called %d times", calls)
	}
	v := list[0]
	if v.Value(estvec.Tag("gpu_mem_free_gb"), 0) != 11 {
		t.Fatal("custom tag missing")
	}
	if v.Value(estvec.TagFlops, 0) != 42e9 {
		t.Fatal("custom flops override missing")
	}
	// Standard tags still present (built on DefaultEstimation).
	if !v.Has(estvec.TagFreeCores) || !v.Has(estvec.TagActive) {
		t.Fatal("default tags lost")
	}
}

// TestCustomEstimationDrivesElection: a custom tag plus a custom
// policy changes the Master Agent's election — the full §III framework
// loop for third-party extensions.
func TestCustomEstimationDrivesElection(t *testing.T) {
	const tagLocality = estvec.Tag("data_locality")
	mk := func(name string, locality float64) *SED {
		sed, err := NewSED(SEDConfig{
			Name:  name,
			Slots: 1,
			Interceptors: []Interceptor{
				replaceEstimation(func(s *SED, req Request) *estvec.Vector {
					return s.DefaultEstimation(req).Set(tagLocality, locality)
				}),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sed.Register(Service{Name: "burn", Solve: func(ctx context.Context, r Request) ([]byte, error) {
			return []byte(name), nil
		}})
		return sed
	}
	far := mk("far", 0.1)
	near := mk("near", 0.9)

	localityPolicy := policyFunc{
		name: "LOCALITY",
		less: estvec.ByTagDesc(tagLocality, estvec.ByServerName),
	}
	ma, err := NewMasterAgent("ma", localityPolicy)
	if err != nil {
		t.Fatal(err)
	}
	ma.Attach(far, near)
	server, _, err := ma.Elect(context.Background(), Request{Service: "burn", Ops: 1e6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if server != "near" {
		t.Fatalf("locality policy elected %s, want near", server)
	}
}

// policyFunc adapts a Less into a sched.Policy for tests.
type policyFunc struct {
	name string
	less estvec.Less
}

func (p policyFunc) Name() string                  { return p.name }
func (p policyFunc) Less(a, b *estvec.Vector) bool { return p.less(a, b) }

var _ sched.Policy = policyFunc{}
