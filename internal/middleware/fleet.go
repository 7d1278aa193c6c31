package middleware

import (
	"context"
	"errors"
	"fmt"
	"time"

	"greensched/internal/carbon"
	"greensched/internal/cluster"
	"greensched/internal/obs"
	"greensched/internal/power"
)

// FleetSpec describes a live deployment's SEDs. Everything master-side
// stays an Option of Deploy.
type FleetSpec struct {
	// Platform is the topology the simulator reads, one SED per node:
	// Cores sets its slots, FlopsPerCore the rate of its built-in
	// "compute" service, which sleeps Ops/FlopsPerCore, and PeakW the
	// reading of its constant meter.
	Platform *cluster.Platform
	// TCP serves each SED on a loopback endpoint per Deploy and reaches
	// it through a dialed Remote; false attaches the SEDs in-process.
	TCP bool
	// Power, when set, replaces the constant meters: each SED reads its
	// watts from it through an ExternalPowerInterceptor.
	Power power.Source
	// Carbon, when set, tags each SED's estimates with the grid's
	// intensity through a CarbonInterceptor.
	Carbon carbon.Signal
	// Spans, when set, receives the spans of the SEDs, the remotes and
	// every master deployed over the fleet.
	Spans *obs.SpanWriter
	// Services are offered by every SED next to "compute".
	Services []Service
}

// Fleet is the SEDs of a FleetSpec, built once: every master deployed
// over it, a restarted one too, reaches the same SEDs.
type Fleet struct {
	spec FleetSpec
	seds []*SED
}

// NewFleet builds the SEDs of spec. It refuses a platform that
// cluster.NewPlatform refuses.
func NewFleet(spec FleetSpec) (*Fleet, error) {
	if spec.Platform == nil {
		return nil, errors.New("middleware: fleet needs a platform")
	}
	if _, err := cluster.NewPlatform(spec.Platform.Nodes); err != nil {
		return nil, fmt.Errorf("middleware: fleet: %w", err)
	}
	f := &Fleet{spec: spec}
	for _, node := range spec.Platform.Nodes {
		var meter Interceptor = &MeterInterceptor{Meter: func() (float64, bool) { return node.PeakW, true }}
		if spec.Power != nil {
			meter = &ExternalPowerInterceptor{Source: spec.Power}
		}
		ics := []Interceptor{meter}
		if spec.Carbon != nil {
			ics = append(ics, &CarbonInterceptor{Signal: spec.Carbon})
		}
		sed, err := NewSED(SEDConfig{Name: node.Name, Slots: node.Cores, Interceptors: ics, Spans: spec.Spans})
		if err != nil {
			return nil, err
		}
		for _, svc := range append([]Service{compute(node.FlopsPerCore)}, spec.Services...) {
			if err := sed.Register(svc); err != nil {
				return nil, err
			}
		}
		f.seds = append(f.seds, sed)
	}
	return f, nil
}

// compute sleeps Ops/flops, or until the request is cancelled.
func compute(flops float64) Service {
	return Service{Name: "compute", Solve: func(ctx context.Context, req Request) ([]byte, error) {
		t := time.NewTimer(time.Duration(req.Ops / flops * float64(time.Second)))
		defer t.Stop()
		select {
		case <-t.C:
			return []byte("done"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
}

// Deployment is one master over a fleet, with the transport that
// reaches its SEDs.
type Deployment struct {
	*Master
	// Addrs are the TCP endpoints' addresses in platform order; nil
	// in-process.
	Addrs   []string
	closers []func() error
}

// Deploy builds a master from opts over the fleet's SEDs, serving and
// dialing each afresh on TCP.
func (f *Fleet) Deploy(opts ...Option) (*Deployment, error) {
	d := &Deployment{}
	if f.spec.Spans != nil {
		opts = append(opts, WithSpans(f.spec.Spans))
	}
	dir := NewMapDirectory()
	for _, sed := range f.seds {
		var node interface {
			Child
			Solver
		} = sed
		if f.spec.TCP {
			ep, err := Serve("127.0.0.1:0", sed, sed)
			if err != nil {
				d.Close()
				return nil, err
			}
			rem := Dial(sed.Name(), ep.Addr())
			rem.SetSpans(f.spec.Spans)
			d.Addrs = append(d.Addrs, ep.Addr())
			d.closers = append(d.closers, ep.Close, rem.Close)
			node = rem
		}
		dir.Add(sed.Name(), node)
		opts = append(opts, WithChildren(node))
	}
	opts = append(opts, WithTransport(dir))
	m, err := NewMaster(opts...)
	if err != nil {
		d.Close()
		return nil, err
	}
	d.Master, d.closers = m, append(d.closers, m.Close)
	return d, nil
}

// Close shuts the master down, then the transport. An endpoint's Close
// waits for the requests it serves. Closing twice is harmless.
func (d *Deployment) Close() error {
	var errs []error
	for i := len(d.closers) - 1; i >= 0; i-- {
		errs = append(errs, d.closers[i]())
	}
	return errors.Join(errs...)
}
