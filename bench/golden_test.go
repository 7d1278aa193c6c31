package main

import (
	"runtime"
	"testing"

	"greensched/internal/cluster"
)

// The committed digests are reproduced by the same seed and — except
// for the workload that draws nothing at random — by no other. The full-scale digests take the simulator about ten seconds,
// so -short checks the test scale only; every seed-1 benchmark run
// checks the full scale again.
func TestGoldenDigests(t *testing.T) {
	for _, s := range []simSpec{simSteady, simBacklog, simStack} {
		g, err := loadGolden(s.name)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if g.Arch != runtime.GOARCH {
			t.Skipf("golden digests were cut on %s", g.Arch)
		}
		if g.Seed != goldenSeed {
			t.Fatalf("%s: golden cut at seed %d, benchmark checks seed %d", s.name, g.Seed, goldenSeed)
		}
		digest := func(seed int64, n int) simDigest {
			tasks, err := s.tasks(seed, n)
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.run(cluster.PaperPlatform(), tasks, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			return r.digest
		}
		if got := digest(goldenSeed, s.tiny); got.Digest != g.Tiny.Digest {
			t.Errorf("%s at %d tasks: digest %s, golden %s\n got %+v\nwant %+v", s.name, s.tiny, got.Digest, g.Tiny.Digest, got.Summary, g.Tiny.Summary)
		}
		if got := digest(goldenSeed+1, s.tiny); (got.Digest == g.Tiny.Digest) != s.seedless {
			t.Errorf("%s (seedless: %v): seed %d digest %s, seed %d digest %s", s.name, s.seedless, goldenSeed+1, got.Digest, goldenSeed, g.Tiny.Digest)
		}
		if testing.Short() {
			continue
		}
		if got := digest(goldenSeed, s.full); got.Digest != g.Full.Digest {
			t.Errorf("%s at %d tasks: digest %s, golden %s\n got %+v\nwant %+v", s.name, s.full, got.Digest, g.Full.Digest, got.Summary, g.Full.Summary)
		}
	}
}
