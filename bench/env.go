package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is the provenance header of every report: enough to tell
// two sets of numbers measured on different machines or commits apart.
type environment struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	WorkDir    string `json:"work_dir"`
	WorkDirFS  string `json:"work_dir_fs"`
	Network    string `json:"network"`
}

func readEnvironment(workDir string) environment {
	env := environment{
		Commit: "unknown", Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: "unknown", Kernel: "unknown", WorkDir: workDir, WorkDirFS: fsType(workDir),
		Network: "host loopback TCP and unix sockets inside one process; no real network",
	}
	// The go tool stamps the commit when it builds inside a git work
	// tree; a bare source checkout has none to report.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+dirty"
				}
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}

func (e environment) lines() []string {
	return []string{
		fmt.Sprintf("commit %s, %s %s/%s, GOMAXPROCS %d of %d CPUs", e.Commit, e.Go, e.GOOS, e.GOARCH, e.GOMAXPROCS, e.NProc),
		fmt.Sprintf("cpu %s, kernel %s", e.CPU, e.Kernel),
		fmt.Sprintf("work dir %s on %s", e.WorkDir, e.WorkDirFS),
		"traffic: " + e.Network,
	}
}

// fsType names the filesystem under dir — the journal's fsync cost is a
// property of it, so a number without it cannot be compared.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
		0xF2F52010: "f2fs", 0x61756673: "aufs", 0x858458F6: "ramfs", 0x01021997: "9p",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
// Every workload runs in a fresh process — the driver's, or a child of
// the set runner — so the mark belongs to that workload alone.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: the rusage high-water mark (kilobytes on Linux).
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeMetrics fills the runtime.* metrics from two MemStats.
func runtimeMetrics(m map[string]float64, before, after *runtime.MemStats) {
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	m["runtime.heap_peak_mb"] = float64(after.HeapSys-after.HeapReleased) / (1 << 20)
}
