package middleware

import (
	"fmt"
	"sync"
	"time"

	"greensched/internal/estvec"
	"greensched/internal/obs"
	"greensched/internal/power"
	"greensched/internal/powerd"
)

// ExternalPowerInterceptor puts an out-of-process power estimator on
// the live serving path — the middleware face of the powerd sidecar
// protocol. Like CarbonInterceptor it mounts on either substrate, one
// instance per mount:
//
//   - mounted on a SED, it is a PowerSource (the SED polls it around
//     every execution, so the dynamic estimator learns from sidecar
//     watts instead of a local meter) and its WrapEstimation hook
//     overrides estvec.TagPowerW — and recomputes TagGreenPerf — with
//     the sidecar's current reading, so elections rank on external
//     watts the moment they arrive;
//   - mounted on a Master, it attributes energy to completions that
//     arrived without a SED-side meter reading (rec.EnergyJ == 0),
//     using the source's last reading for the solving server when
//     fresh, and publishes the greensched_power_* families when a
//     Registry is attached.
//
// The Source is typically a powerd.Client, which degrades to analytic
// curves on its own — so a dead sidecar never blinds an election, it
// only changes where the watts come from (loudly: the client warns
// once and the fallback counter climbs).
type ExternalPowerInterceptor struct {
	BaseInterceptor

	// Source supplies per-node watts; required. A powerd.Client gives
	// the full sidecar protocol with fallback; any power.Source works.
	Source power.Source

	// Node is the node name sent to the source from SED mounts;
	// default: the SED's name.
	Node string

	// FreshSec bounds master-side attribution: a completion is
	// attributed sidecar watts only when the source's last reading for
	// the solving server is at most this old (default 5 s — the
	// client's default staleness window).
	FreshSec float64

	// Registry, on master mounts, receives the greensched_power_*
	// families, refreshed from the source at every scrape. Labels are
	// the constant labels stamped on them (ObsInterceptor discipline:
	// same keys across mounts sharing a Registry).
	Registry *obs.Registry
	Labels   map[string]string

	sed   *SED
	clock func() float64

	mu          sync.Mutex
	attributedJ float64
}

// Init implements Interceptor.
func (p *ExternalPowerInterceptor) Init(mount Mount) error {
	if p.Source == nil {
		return fmt.Errorf("middleware: external power interceptor needs a power source")
	}
	if p.FreshSec == 0 {
		p.FreshSec = 5
	}
	if mount.SED != nil {
		p.sed = mount.SED
		if p.Node == "" {
			p.Node = mount.SED.Name()
		}
		epoch := time.Now()
		p.clock = func() float64 { return time.Since(epoch).Seconds() }
		return nil
	}
	if mount.Master == nil {
		return nil // agent mounts observe nothing yet
	}
	p.clock = mount.Master.Now
	if p.Registry != nil {
		m := obs.NewPowerMetrics(p.Registry, p.Labels)
		src := p.Source
		p.Registry.OnScrape(func() {
			if cli, ok := src.(interface{ Stats() powerd.Stats }); ok {
				st := cli.Stats()
				m.SetCounters(float64(st.Requests), float64(st.Errors), float64(st.Fallbacks))
				m.SetState(st.BreakerOpen, st.LastGoodSec)
			}
			if cli, ok := src.(interface{ Readings() []powerd.Reading }); ok {
				for _, r := range cli.Readings() {
					m.SetNodeWatts(r.Node, float64(r.Watts))
				}
			}
		})
	}
	return nil
}

// read polls the source at the SED's current operating point.
func (p *ExternalPowerInterceptor) read() (float64, bool) {
	util := 0.0
	if slots := p.sed.cfg.Slots; slots > 0 {
		util = float64(p.sed.inflight.Load()) / float64(slots)
	}
	w, ok := p.Source.NodePowerW(p.Node,
		[]string{power.MetricUtil, power.MetricTime},
		[]float64{util, p.clock()})
	return float64(w), ok
}

// PowerW implements PowerSource: the SED feeds sidecar watts to its
// dynamic estimator exactly as it would a local meter's.
func (p *ExternalPowerInterceptor) PowerW() (float64, bool) {
	if p.sed == nil {
		return 0, false
	}
	return p.read()
}

// WrapEstimation implements Interceptor: the vector's power tag (and
// the green-perf ratio derived from it) reflects the sidecar's current
// reading instead of the estimator's trailing mean.
func (p *ExternalPowerInterceptor) WrapEstimation(base EstimationFunc) EstimationFunc {
	return func(s *SED, req Request) *estvec.Vector {
		v := base(s, req)
		if w, ok := p.read(); ok {
			v.Set(estvec.TagPowerW, w)
			if f, okF := v.Get(estvec.TagFlops); okF && f > 0 {
				v.Set(estvec.TagGreenPerf, w/f)
			}
		}
		return v
	}
}

// OnComplete implements Interceptor: completions that carried no
// SED-attributed energy (remote daemons without meters, stub
// services) get sidecar watts integrated over their execution time —
// but only from a reading fresh enough to describe that execution.
func (p *ExternalPowerInterceptor) OnComplete(rec RequestRecord) {
	if rec.Err != nil || rec.EnergyJ != 0 || rec.ExecSec <= 0 || rec.Server == "" {
		return
	}
	rs, ok := p.Source.(power.ReadingSource)
	if !ok {
		return
	}
	w, age, ok := rs.LastReading(rec.Server)
	if !ok || age > p.FreshSec {
		return
	}
	p.mu.Lock()
	p.attributedJ += float64(w) * rec.ExecSec
	p.mu.Unlock()
}

// Finalize implements Interceptor: attributed sidecar energy joins the
// result's energy total.
func (p *ExternalPowerInterceptor) Finalize(res *LiveResult) {
	p.mu.Lock()
	defer p.mu.Unlock()
	res.EnergyJ += p.attributedJ
}
