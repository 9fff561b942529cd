package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks; xs need not be sorted. It returns 0
// for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailSpec is the percentile a workload reports as job_ms_tail, fixed per
// workload so that runs stay comparable. It is the highest percentile of
// the ladder 50/75/90/95/99 that leaves at least ten samples beyond it at
// the workload's nominal sample count; every result records the actual
// count beyond it.
type tailSpec struct {
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"samples_beyond"`
}

func tailOf(xs []float64, p float64) (float64, tailSpec) {
	beyond := int(math.Floor(float64(len(xs)) * (1 - p/100)))
	return percentile(xs, p), tailSpec{Percentile: p, Samples: len(xs), Beyond: beyond}
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// cpuMS is the CPU time the process has used so far (user + system, every
// thread) in milliseconds. Unlike the wall clock it does not advance while
// the process waits for a processor, whether behind other processes or
// while the hypervisor runs another guest, so it measures the work done
// and not how busy the host was. It is 0 if the clock cannot be read.
func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// durMS converts a duration to fractional milliseconds.
func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rtSample is a snapshot of the Go runtime counters the benchmark reports.
type rtSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// rtDelta is the runtime work between two snapshots.
type rtDelta struct {
	allocMB    float64
	gcCycles   float64
	gcFraction float64
}

func (a rtSample) to(b rtSample) rtDelta {
	d := rtDelta{
		allocMB:  float64(b.allocBytes-a.allocBytes) / (1 << 20),
		gcCycles: float64(b.gcCycles - a.gcCycles),
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcFraction = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in MiB;
// 0 when /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// provenance records where and on what a result was measured.
type provenance struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func newProvenance(cfg config) provenance {
	return provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GitRev:     gitRev(),
		Seed:       cfg.seed,
		Workload:   cfg.workload,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
	}
}

// gitRev is the VCS revision stamped into the binary at build time, with a
// "+dirty" suffix for a modified tree; "unknown" when built outside a
// repository.
func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
