package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"greensched/internal/estvec"
	"greensched/internal/journal"
	"greensched/internal/sched"
	"greensched/internal/simtime"
)

// Probes call one public function of one layer directly, in a tight
// loop, and report the median cost of a call. They do not depend on the
// workload, and run in every traced run so each layer's unit cost sits
// next to the in-workload numbers it explains.

// probeBatches × probeBatch calls per probe; the median batch is kept.
const (
	probeBatches = 9
	probeBatch   = 2000
)

// probeNs times batches of fn and returns the median ns per call.
func probeNs(batch int, fn func()) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per[b] = float64(time.Since(start)) / float64(batch)
	}
	return median(per)
}

// paperVectors is the estimation-vector list a paper-platform election
// sees: twelve known, active SEDs with free cores, three clusters' worth
// of power and speed.
func paperVectors() estvec.List {
	specs := []struct {
		cluster      string
		flops, watts float64
	}{{"orion", 9.6e9, 490}, {"sagittaire", 4.6e9, 258}, {"taurus", 9.0e9, 222}}
	var list estvec.List
	for _, s := range specs {
		for i := 0; i < 4; i++ {
			list = append(list, estvec.New(fmt.Sprintf("%s-%d", s.cluster, i)).
				Set(estvec.TagFreeCores, float64(1+i)).
				Set(sched.TagCores(), 12).
				Set(estvec.TagQueueLen, 0).
				SetBool(estvec.TagActive, true).
				SetBool(estvec.TagKnown, true).
				Set(estvec.TagRequests, 64).
				Set(estvec.TagWaitSec, 0).
				Set(estvec.TagFlops, s.flops).
				Set(estvec.TagPowerW, s.watts).
				Set(estvec.TagGreenPerf, s.watts/s.flops).
				Set(estvec.TagRandom, float64(i)/4))
		}
	}
	return list
}

var probeSink any // keeps probe results alive so calls are not optimised away

func runProbes(m map[string]float64, p params) error {
	batch := probeBatch
	if p.Tiny {
		batch = 50
	}

	// sched: one election over the paper platform's twelve vectors.
	list := paperVectors()
	sel := sched.NewSelector(sched.New(sched.GreenPerf))
	m["sched.select_ns"] = probeNs(batch, func() {
		v, err := sel.Select(list)
		if err != nil {
			panic(err) // twelve active servers: cannot fail
		}
		probeSink = v
	})

	// simtime: schedule one event and fire one, heap held at depth 128.
	eng := simtime.NewEngine()
	nop := func(simtime.Time) {}
	at := 0.0
	for i := 0; i < 128; i++ {
		at++
		eng.At(simtime.Time(at), "probe", nop)
	}
	m["simtime.event_ns"] = probeNs(batch, func() {
		at++
		eng.At(simtime.Time(at), "probe", nop)
		eng.Step()
	})

	// estvec: the gob round trip of the single-vector list one remote
	// SED's Estimate returns, over a codec pair that lives as long as a
	// Remote's connection does (type descriptors cross once, not per
	// call).
	one := estvec.List{list[0]}
	var pipe bytes.Buffer
	enc, dec := gob.NewEncoder(&pipe), gob.NewDecoder(&pipe)
	var gobErr error
	m["estvec.gob_roundtrip_ns"] = probeNs(batch/4+1, func() {
		var back estvec.List
		if err := enc.Encode(one); err != nil {
			gobErr = err
		} else if err := dec.Decode(&back); err != nil {
			gobErr = err
		}
		probeSink = back
	})
	if gobErr != nil {
		return fmt.Errorf("estvec gob probe: %w", gobErr)
	}

	return probeJournal(m, p)
}

// probeJournal replays the record sequence one request writes —
// admit, lease, settle — by direct calls on a journal in the work
// directory, synced and unsynced, then recovers the synced log.
func probeJournal(m map[string]float64, p params) error {
	n := 256
	if p.Tiny {
		n = 16
	}
	dir, err := os.MkdirTemp(p.OutDir, "probe-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	replay := func(path string, opts journal.Options) (admit, lease, settle []float64, err error) {
		j, err := journal.Open(path, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		defer j.Close()
		for i := 1; i <= n; i++ {
			id := uint64(i)
			t0 := time.Now()
			if err := j.Admit(journal.Record{ID: id, Service: "compute", Ops: 1e9, Class: "batch", Deferrable: true, SubmitAt: 1}); err != nil {
				return nil, nil, nil, err
			}
			t1 := time.Now()
			if _, err := j.Lease(id, "lean", 0); err != nil {
				return nil, nil, nil, err
			}
			t2 := time.Now()
			if err := j.Settle(id, journal.StateCompleted, 2, 1e-6, 1e-4, ""); err != nil {
				return nil, nil, nil, err
			}
			t3 := time.Now()
			admit = append(admit, float64(t1.Sub(t0))/1e3)
			lease = append(lease, float64(t2.Sub(t1))/1e3)
			settle = append(settle, float64(t3.Sub(t2))/1e3)
		}
		return admit, lease, settle, nil
	}

	synced := filepath.Join(dir, "synced.wal")
	admit, lease, settle, err := replay(synced, journal.Options{})
	if err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	a0, l0, s0, err := replay(filepath.Join(dir, "nosync.wal"), journal.Options{NoSync: true})
	if err != nil {
		return fmt.Errorf("journal probe (NoSync): %w", err)
	}
	m["journal.admit_us"] = median(admit)
	m["journal.lease_us"] = median(lease)
	m["journal.settle_us"] = median(settle)
	all := append(append(admit, lease...), settle...)
	all0 := append(append(a0, l0...), s0...)
	m["journal.fsync_us"] = median(all) - median(all0)

	f, err := os.Open(synced)
	if err != nil {
		return err
	}
	defer f.Close()
	t0 := time.Now()
	rec, err := journal.Recover(f)
	if err != nil {
		return fmt.Errorf("journal probe: recover: %w", err)
	}
	m["journal.recover_ms"] = float64(time.Since(t0)) / 1e6
	if len(rec.Settled()) != n || rec.Truncated {
		return fmt.Errorf("journal probe: recovered %d of %d settled entries (truncated=%v)", len(rec.Settled()), n, rec.Truncated)
	}
	return nil
}
