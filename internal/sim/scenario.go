package sim

import (
	"greensched/internal/cluster"
	"greensched/internal/sched"
	"greensched/internal/workload"
)

// This file is the scenario construction surface: NewScenario builds a
// Config from a platform, a workload and functional options, with the
// module stack as the one extension mechanism. It is sugar — the
// returned Config runs through the ordinary Run/NewRunner path — but
// it keeps scenario definitions declarative:
//
//	cfg := sim.NewScenario(platform, tasks,
//		sim.WithPolicy(sched.New(sched.Carbon)),
//		sim.WithSeed(7),
//		sim.WithTick(300),
//		sim.WithModules(
//			&sim.CarbonModule{Profile: profile},
//			&sim.SLAModule{Config: slaCfg, WrapDeadline: true},
//			&consolidation.Module{Controller: ctl},
//		),
//	)
//	res, err := sim.Run(cfg)

// Option mutates a scenario Config under construction.
type Option func(*Config)

// NewScenario returns a Config for the platform and workload with all
// options applied. The policy defaults to GreenPerf (the paper's
// headline metric) when no WithPolicy option overrides it.
func NewScenario(platform *cluster.Platform, tasks []workload.Task, opts ...Option) Config {
	cfg := Config{
		Platform: platform,
		Tasks:    tasks,
		Policy:   sched.New(sched.GreenPerf),
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithPolicy sets the run's base election policy (the policy the first
// module's WrapPolicy receives).
func WithPolicy(p sched.Policy) Option { return func(c *Config) { c.Policy = p } }

// WithSeed sets the seed driving every stochastic element.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithModules appends modules to the scenario's stack, in order.
func WithModules(mods ...Module) Option {
	return func(c *Config) { c.Modules = append(c.Modules, mods...) }
}

// WithExplore enables the learning phase (dynamic estimation).
func WithExplore() Option { return func(c *Config) { c.Explore = true } }

// WithStatic seeds every estimator from a noiseless initial benchmark
// instead of learning dynamically.
func WithStatic() Option { return func(c *Config) { c.Static = true } }

// WithSlotsPerNode caps concurrent tasks per node below its core count.
func WithSlotsPerNode(n int) Option { return func(c *Config) { c.SlotsPerNode = n } }

// WithTick sets the control cadence: module OnTick hooks run every
// `every` virtual seconds.
func WithTick(every float64) Option { return func(c *Config) { c.ControlEvery = every } }

// WithRetryEvery sets the client back-off between election attempts
// for a request no server can accept.
func WithRetryEvery(every float64) Option { return func(c *Config) { c.RetryEvery = every } }
