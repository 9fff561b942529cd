// Command benchmark is the repository's benchmark. It runs one named
// workload against the system's public entry points, checks every output,
// and prints one JSON object as the last line of its standard output:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is repeated with spans recorded around every layer call and the metrics
// are the per-layer ones. METRICS.md maps each metric to its layer and to
// the end-to-end metric it should move. Build and run it from the
// repository root with run.sh, e.g.
//
//	bash benchmark/run.sh --workload chain --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// out is the directory receiving the detailed result and span files
	// ("" writes none).
	out string
	// setups is how many times set-up runs; setup_s is their median.
	// Traced runs set up once.
	setups int
}

// setupRuns is the number of set-ups of an untraced run.
const setupRuns = 9

// benchProcs is the GOMAXPROCS the benchmark runs under. With one
// processor the library's default engine is the serial one and the
// daemon's default pool has one worker, so every job runs on a single
// thread and its CPU time is its latency on an idle processor, whatever
// else the host is running (see METRICS.md).
const benchProcs = 1

func main() {
	runtime.GOMAXPROCS(benchProcs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: chain, byzantine-cost or daemon")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 records layer spans and reports the per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "directory for the detailed result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace, cfg.setups = trace != 0, setupRuns
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -trace 0 or 1")
		return 2
	}
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if cfg.out != "" {
		if err := res.write(cfg); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintln(stderr, "check failed:", p)
	}
	line, err := json.Marshal(res.final())
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func runWorkload(ctx context.Context, cfg config) (*result, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	r := &result{Provenance: newProvenance(cfg), Metrics: map[string]metric{}}
	switch cfg.workload {
	case "chain":
		err = runClosed(ctx, cfg, closedChain, exp, r)
	case "byzantine-cost":
		err = runClosed(ctx, cfg, closedByz, exp, r)
	case "daemon":
		err = runDaemon(ctx, cfg, exp, r)
	default:
		return nil, fmt.Errorf("unknown workload %q (want chain, byzantine-cost or daemon)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	if err := r.complete(cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// The end-to-end metrics (untraced runs) and per-layer metrics (traced
// runs) with their units; BENCHMARK.json lists the same names.
var endToEnd = map[string]string{
	"setup_s":          "s",
	"job_ms_p50":       "ms",
	"job_ms_tail":      "ms",
	"jobs_per_s":       "1/s",
	"max_rate_jobs_s":  "1/s",
	"alloc_mb_per_job": "MB",
	"recovery_cost":    "1",
}

var perLayer = map[string]string{
	"parse.ms":                   "ms",
	"program.compile_ms":         "ms",
	"program.engine_ms":          "ms",
	"program.fix_images":         "count",
	"program.fix_rounds":         "count",
	"repair.step1_ms":            "ms",
	"repair.step2_ms":            "ms",
	"repair.other_ms":            "ms",
	"repair.outer_iterations":    "count",
	"witness.ms":                 "ms",
	"verify.ms":                  "ms",
	"verify.fix_images":          "count",
	"bdd.nodes_alloc":            "count",
	"bdd.cache_lookups":          "count",
	"bdd.cache_hit_ratio":        "1",
	"bdd.unique_hits":            "count",
	"bdd.peak_live":              "count",
	"bdd.gc_runs":                "count",
	"service.queue_wait_ms_p50":  "ms",
	"service.queue_wait_ms_tail": "ms",
	"service.run_ms_p50":         "ms",
	"service.cache_hit_ratio":    "1",
	"service.rejected_ratio":     "1",
	"runtime.gc_cycles_per_job":  "count",
	"runtime.gc_cpu_fraction":    "1",
	"peak_rss_mb":                "MB",
	"loadgen.late_ms_max":        "ms",
	"trace.overhead_ratio":       "1",
}

// result is everything one run measured. The final line prints the
// summary; the detailed record (provenance, tail sample counts, work
// counters, daemon schedule) goes to the -out directory.
type result struct {
	Provenance provenance        `json:"provenance"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Problems   []string          `json:"problems,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Tail       *tailSpec         `json:"job_ms_tail_at,omitempty"`
	// JobMS are the CPU times behind job_ms_p50 and job_ms_tail, in
	// completion order; JobWallMS are the same jobs' wall-clock times.
	JobMS     []float64 `json:"job_ms_samples,omitempty"`
	JobWallMS []float64 `json:"job_wall_ms_samples,omitempty"`
	SetupS    []float64 `json:"setup_s_samples,omitempty"`
	// Counters are the deterministic work counters of each distinct job,
	// from the traced run's first pass; NonRepeating lists every counter
	// that differed between two runs of the same job, with the reason.
	Counters     map[string]workCounters `json:"counters,omitempty"`
	NonRepeating []string                `json:"non_repeating_counters,omitempty"`
	EngineMode   string                  `json:"engine_mode,omitempty"`
	Workers      int                     `json:"engine_workers,omitempty"`
	Daemon       *daemonInfo             `json:"daemon,omitempty"`
	spans        []span
}

func (r *result) set(name string, v float64) {
	unit, ok := endToEnd[name]
	if !ok {
		unit = perLayer[name]
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed check.
func (r *result) fail(problems ...string) {
	r.Problems = append(r.Problems, problems...)
}

// complete verifies that the run produced exactly the metric set of its
// mode.
func (r *result) complete(cfg config) error {
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	for name := range want {
		if _, ok := r.Metrics[name]; !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
	}
	for name := range r.Metrics {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s does not belong to this mode", name)
		}
	}
	if r.Attempted < 1 {
		return fmt.Errorf("no job was attempted")
	}
	return nil
}

type finalLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) final() finalLine {
	return finalLine{Correct: len(r.Problems) == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

func (r *result) write(cfg config) error {
	dir := filepath.Join(cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	if err := writeJSON(filepath.Join(dir, base+".json"), r); err != nil {
		return err
	}
	if r.spans == nil {
		return nil
	}
	return writeJSON(filepath.Join(dir, base+".spans.json"), r.spans)
}
