package cluster

import (
	"math/rand"

	"greensched/internal/power"
)

// Calibration is the per-node (performance, power) data an initial
// benchmark campaign produces — the paper's first, static approach to
// GreenPerf inputs (§III-A): "benchmarking nodes by computing a job on
// each node, measuring the energy spent to complete it, and then
// dividing the amount of energy by time". The experiments in §IV-B use
// exactly this to seed the simulation: "After performing an initial
// benchmark on the physical nodes of GRID'5000, we obtained for each
// server its mean computation time for a single task along with its
// peak and idle power consumptions."
type Calibration struct {
	Node        string
	TaskSeconds float64 // mean computation time of the reference task
	MeanWatts   float64 // mean draw measured during the benchmark
	IdleWatts   float64
	PeakWatts   float64
	Flops       float64 // derived sustained flop/s for one core
}

// GreenPerf returns the static ratio power/performance measured by the
// benchmark (lower is better).
func (c Calibration) GreenPerf() float64 {
	if c.Flops <= 0 {
		return 0
	}
	return c.MeanWatts / c.Flops
}

// BenchmarkNode emulates running the reference benchmark (the paper
// uses ATLAS/HPL over Open MPI) on a node: a single-core CPU-bound job
// of refOps flops, executed on an otherwise idle node. jitter adds a
// relative uniform error (hardware variance, ±jitter) drawn from rng;
// pass jitter=0 for the noiseless spec values.
func BenchmarkNode(spec NodeSpec, refOps, jitter float64, rng *rand.Rand) Calibration {
	perturb := func(v float64) float64 {
		if jitter <= 0 || rng == nil {
			return v
		}
		return v * (1 + (rng.Float64()*2-1)*jitter)
	}
	flops := perturb(spec.FlopsPerCore)
	secs := refOps / flops
	// One core busy out of Cores: the wattmeter sees the node draw at
	// utilization 1/Cores for the duration of the run.
	mean := spec.PowerModel().Power(power.On, 1/float64(spec.Cores))
	mean = perturb(mean)
	return Calibration{
		Node:        spec.Name,
		TaskSeconds: secs,
		MeanWatts:   mean,
		IdleWatts:   perturb(spec.IdleW),
		PeakWatts:   perturb(spec.PeakW),
		Flops:       flops,
	}
}
