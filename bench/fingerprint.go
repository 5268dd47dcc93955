package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// fingerprint identifies the host and build a set of numbers came from.
// compare refuses to set two files side by side when CPUModel, NProc or
// GOMAXPROCS differ: a 30–45 % host gap must never read as a regression.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Kernel     string `json:"kernel"`
	GitRev     string `json:"git_rev"`
	GitDirty   bool   `json:"git_dirty"`
	Seed       uint64 `json:"seed"`
	Workers    int    `json:"workers"`
	Shards     int    `json:"shards"`
}

func hostFingerprint(seed uint64) fingerprint {
	procs := benchProcs()
	fp := fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Kernel:     kernelRelease(),
		GitRev:     "unknown",
		Seed:       seed,
		Workers:    procs,
		Shards:     benchShards(procs),
	}
	// Outside a git work tree (the driver's checkout) the revision stays
	// "unknown"; the numbers are still tagged with everything else.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.GitRev = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			fp.GitDirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return fp
}

// benchProcs is the benchmark's load shape: GOMAXPROCS = min(nproc, 4).
func benchProcs() int { return min(runtime.NumCPU(), 4) }

// benchShards is the sharded workload's shard count: clamp(procs, 2, 4).
func benchShards(procs int) int { return max(2, min(procs, 4)) }

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// sameHost reports whether two fingerprints may be compared.
func (f fingerprint) sameHost(g fingerprint) bool {
	return f.CPUModel == g.CPUModel && f.NProc == g.NProc && f.GOMAXPROCS == g.GOMAXPROCS
}
