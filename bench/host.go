package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo states where the numbers were taken; a result without it
// cannot be compared with another.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Network    string `json:"network"`
}

func readHost(root string) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Commit:     headCommit(root),
		Network:    "loopback, not a real link",
	}
}

func firstLine(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	return string(line)
}

// headCommit reads the checked-out commit straight from .git, so the
// benchmark needs no git binary; an exported tree reads "unknown".
func headCommit(root string) string {
	head := firstLine(filepath.Join(root, ".git", "HEAD"))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	return firstLine(filepath.Join(root, ".git", ref))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), with
// getrusage's maxrss as the fallback where /proc is absent.
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// gcCPUFraction and memory counters come from one MemStats read.
type memSnap struct {
	totalAlloc uint64
	mallocs    uint64
	gcFraction float64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcFraction: ms.GCCPUFraction}
}

// window measures wall and process CPU time across a stretch of work.
type window struct {
	t0   time.Time
	cpu0 float64
}

func startWindow() window { return window{t0: time.Now(), cpu0: cpuSeconds()} }

func (w window) wall() float64 { return time.Since(w.t0).Seconds() }
func (w window) cpu() float64  { return cpuSeconds() - w.cpu0 }

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }
