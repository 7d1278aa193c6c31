package carbon

import "fmt"

// SiteProfile ties one physical site to its grid: the carbon signal of
// the regional grid it draws from, plus the facility overhead (PUE)
// that multiplies every IT joule into facility joules before the grid
// meter.
type SiteProfile struct {
	Site   string // site name, e.g. "lyon"
	Signal Signal
	// PUE is the power usage effectiveness multiplier applied to IT
	// energy when attributing emissions (≥1; 0 means 1.0, an ideal
	// facility).
	PUE float64
}

// Validate reports a descriptive error for unusable profiles.
func (sp SiteProfile) Validate() error {
	if sp.Signal == nil {
		return fmt.Errorf("carbon: site %q has no signal", sp.Site)
	}
	if sp.PUE < 0 || (sp.PUE > 0 && sp.PUE < 1) {
		return fmt.Errorf("carbon: site %q PUE %v must be 0 (=1.0) or ≥1", sp.Site, sp.PUE)
	}
	return nil
}

// pue returns the effective multiplier.
func (sp SiteProfile) pue() float64 {
	if sp.PUE == 0 {
		return 1
	}
	return sp.PUE
}

// Profile maps the clusters of a (possibly multi-site) platform onto
// site profiles, so each node sees the grid behind its own socket. A
// cluster without an explicit mapping uses the default site.
type Profile struct {
	def       SiteProfile
	byCluster map[string]SiteProfile
}

// NewProfile returns a profile with the given default site.
func NewProfile(def SiteProfile) (*Profile, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	return &Profile{def: def, byCluster: make(map[string]SiteProfile)}, nil
}

// MustProfile is NewProfile for static configuration; it panics on
// error.
func MustProfile(def SiteProfile) *Profile {
	p, err := NewProfile(def)
	if err != nil {
		panic(err)
	}
	return p
}

// SetCluster maps a cluster to a site profile.
func (p *Profile) SetCluster(cluster string, sp SiteProfile) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	p.byCluster[cluster] = sp
	return nil
}

// Site resolves the profile for a cluster (the default when unmapped).
func (p *Profile) Site(cluster string) SiteProfile {
	if sp, ok := p.byCluster[cluster]; ok {
		return sp
	}
	return p.def
}

// IntensityAt returns the grid intensity a cluster sees at time t.
func (p *Profile) IntensityAt(cluster string, t float64) float64 {
	return p.Site(cluster).Signal.IntensityAt(t)
}
