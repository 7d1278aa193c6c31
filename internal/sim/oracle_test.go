package sim

import (
	"math"
	"math/rand"
	"testing"

	"greensched/internal/cluster"
	"greensched/internal/sched"
	"greensched/internal/workload"
)

// Oracles: cases where queueing theory gives the exact stationary
// answer, so the kernel's numbers are checked for being right, not
// only for being unchanged.
//
// Each case's tolerance is a batch-means confidence interval. The run
// is cut into oracleBatches+1 equal batches (tasks by arrival for the
// wait, virtual time for the power); the first is warm-up from an empty
// system and is dropped. The rest give a 99% Student-t half-width,
// t(0.995, 19) × s/√20, and the kernel's figure must lie within it of
// the theoretical value. At seed 1 and ρ = 0.5, 0.8, 0.9 that is about
// ±18%, ±12% and ±14% of the mean wait (waits are strongly correlated
// near saturation) and ±0.2% of the mean power.
const (
	oracleBatches = 20
	oracleT995    = 2.861 // Student t, 19 degrees of freedom, 0.995 quantile
	oracleTasks   = 300_000
	oracleMeanSec = 10.0 // mean task size on one core
)

// batchMean returns the grand mean of the batch means and its 99%
// half-width.
func batchMean(means []float64) (mean, half float64) {
	for _, m := range means {
		mean += m
	}
	mean /= float64(len(means))
	ss := 0.0
	for _, m := range means {
		ss += (m - mean) * (m - mean)
	}
	return mean, oracleT995 * math.Sqrt(ss/float64(len(means)-1)/float64(len(means)))
}

// mmc holds the M/M/c stationary quantities for c servers at offered
// load a = λ/μ: Erlang C's probability of waiting and P(no busy core).
func mmc(c int, a float64) (wait, idle float64) {
	term, sum := 1.0, 0.0 // a^k/k!
	for k := 0; k < c; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	tail := term / (1 - a/float64(c)) // a^c/c! · 1/(1−ρ)
	return tail / (sum + tail), 1 / (sum + tail)
}

// TestOracleMMc: one 12-core SED, FIFO, Poisson arrivals and
// exponential task sizes is an M/M/12 queue. The mean wait must match
// Erlang C, Wq = C(c, a)/(cμ − λ), and the mean platform power must
// match the stationary busy-core distribution under the node's linear
// model: idle + activation·P(busy > 0) + (peak − idle − activation)·ρ.
func TestOracleMMc(t *testing.T) {
	nodes := cluster.NewNodes("taurus", 1)
	spec, c := nodes[0], nodes[0].Cores
	mu := 1 / oracleMeanSec
	for _, rho := range []float64{0.5, 0.8, 0.9} {
		lambda := rho * float64(c) * mu
		rng := rand.New(rand.NewSource(1))
		ts := make([]workload.Task, oracleTasks)
		at := 0.0
		for i := range ts {
			at += rng.ExpFloat64() / lambda
			ts[i] = workload.Task{ID: i, Submit: at, Ops: rng.ExpFloat64() * oracleMeanSec * spec.FlopsPerCore}
		}
		span := at / float64(oracleBatches+1)
		waits := make([]float64, oracleTasks)
		var energy []float64
		probe := &HookModule{
			OnFinishFunc: func(rec TaskRecord) { waits[rec.ID] = rec.Wait() },
			OnTickFunc: func(now float64, ctl Control) {
				if len(energy) <= oracleBatches {
					energy = append(energy, ctl.EnergyJ())
				}
			},
		}
		res, err := Run(Config{
			Platform:     cluster.MustPlatform(nodes),
			Policy:       sched.New(sched.Power),
			Tasks:        ts,
			Seed:         1,
			ControlEvery: span,
			Modules:      []Module{probe},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(energy) != oracleBatches+1 {
			t.Fatalf("ρ=%v: %d energy probes, want %d", rho, len(energy), oracleBatches+1)
		}
		per := oracleTasks / (oracleBatches + 1)
		waitMeans, powerMeans := make([]float64, oracleBatches), make([]float64, oracleBatches)
		for b := range waitMeans {
			sum := 0.0
			for _, w := range waits[(b+1)*per : (b+2)*per] {
				sum += w
			}
			waitMeans[b] = sum / float64(per)
			powerMeans[b] = (energy[b+1] - energy[b]) / span
		}

		pWait, pIdle := mmc(c, lambda/mu)
		wantWait := pWait / (float64(c)*mu - lambda)
		wantPower := float64(spec.IdleW) + float64(spec.ActivationW)*(1-pIdle) +
			float64(spec.PeakW-spec.IdleW-spec.ActivationW)*rho

		_, waitHalf := batchMean(waitMeans)
		gotPower, powerHalf := batchMean(powerMeans)
		t.Logf("ρ=%v: MeanWait %.4f s (Erlang C %.4f ± %.4f); power %.3f W (M/M/c %.3f ± %.3f)",
			rho, res.MeanWait(), wantWait, waitHalf, gotPower, wantPower, powerHalf)
		if math.Abs(res.MeanWait()-wantWait) > waitHalf {
			t.Errorf("ρ=%v: MeanWait %.4f s, Erlang C %.4f s, outside ±%.4f", rho, res.MeanWait(), wantWait, waitHalf)
		}
		if math.Abs(gotPower-wantPower) > powerHalf {
			t.Errorf("ρ=%v: mean power %.3f W, M/M/c %.3f W, outside ±%.3f", rho, gotPower, wantPower, powerHalf)
		}
	}
}
