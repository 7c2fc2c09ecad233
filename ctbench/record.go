package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ctgauss/internal/bitslice/dispatch"
)

// runRecord names what produced a result: the machine, the toolchain,
// the code and the inputs.
type runRecord struct {
	Workload   string        `json:"workload"`
	Seed       uint64        `json:"seed"`
	Seconds    float64       `json:"seconds"`
	Trace      bool          `json:"trace"`
	SIMD       dispatch.Info `json:"simd"`
	PRNG       string        `json:"prng"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	CPU        string        `json:"cpu"`
	GoVersion  string        `json:"go_version"`
	Commit     string        `json:"commit"`
	SourceHash string        `json:"source_sha256"`
}

func newRunRecord(workload string, seed uint64, seconds float64, trace bool) runRecord {
	return runRecord{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		SIMD: dispatch.Snapshot(), PRNG: "chacha20",
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: cpuModel(), GoVersion: runtime.Version(), Commit: vcsRevision(), SourceHash: sourceHash("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// vcsRevision is the commit the binary was built from, when it was built
// inside a git checkout ("unknown" otherwise; sourceHash still pins the
// code).
func vcsRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// sourceHash digests the program's Go sources and go.mod under root,
// skipping the benchmark's own directory and build outputs, so two
// results can be matched to the same code without git.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "ctbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".s") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path + "\x00" + strconv.Itoa(len(b)) + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// residentMB is the process's resident set now (VmRSS) in MB.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssTick is how often an rssMeter samples the resident set.
const rssTick = 10 * time.Millisecond

// rssMeter averages the process's resident set, sampled every rssTick,
// from its start until mean is called.
type rssMeter struct {
	stop chan struct{}
	done chan float64
}

func startRSSMeter() *rssMeter {
	m := &rssMeter{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		t := time.NewTicker(rssTick)
		defer t.Stop()
		sum, n := residentMB(), 1
		for {
			select {
			case <-m.stop:
				m.done <- sum / float64(n)
				return
			case <-t.C:
				sum += residentMB()
				n++
			}
		}
	}()
	return m
}

// mean stops the meter and returns the mean resident set in MB.
func (m *rssMeter) mean() float64 {
	close(m.stop)
	return <-m.done
}

// stealSeconds is the host's cumulative CPU steal time (all CPUs): time
// the hypervisor ran something else while this machine's CPUs had work.
// A phase records its delta, so a slow run can be told from a slow
// program.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
}

// processCPUSeconds is the CPU time (user + system, all threads) this
// process has used.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// cpuClockTick is how often a cpuClock samples the process's CPU time.
const cpuClockTick = 20 * time.Millisecond

// cpuClock samples the process's CPU time against wall time from an
// origin until stopped, so the CPU seconds spent over any part of a
// stretch can be read afterwards.
type cpuClock struct {
	origin time.Time
	at     []time.Duration // wall time since origin
	cpu    []float64       // process CPU seconds at that time
	stop   chan struct{}
	done   sync.WaitGroup
}

func startCPUClock(origin time.Time) *cpuClock {
	c := &cpuClock{origin: origin, stop: make(chan struct{})}
	c.sample()
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		t := time.NewTicker(cpuClockTick)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				c.sample()
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *cpuClock) sample() {
	c.at = append(c.at, time.Since(c.origin))
	c.cpu = append(c.cpu, processCPUSeconds())
}

// close stops the sampling and waits for its goroutine.
func (c *cpuClock) close() {
	close(c.stop)
	c.done.Wait()
}

// read is the process CPU seconds at t since the origin, interpolated
// between the samples either side (clamped to the first and last).
func (c *cpuClock) read(t time.Duration) float64 {
	i := sort.Search(len(c.at), func(i int) bool { return c.at[i] >= t })
	switch {
	case i == 0:
		return c.cpu[0]
	case i == len(c.at):
		return c.cpu[len(c.cpu)-1]
	}
	f := float64(t-c.at[i-1]) / float64(c.at[i]-c.at[i-1])
	return c.cpu[i-1] + f*(c.cpu[i]-c.cpu[i-1])
}

// between is the process CPU seconds spent from a to b since the origin.
func (c *cpuClock) between(a, b time.Duration) float64 { return c.read(b) - c.read(a) }
