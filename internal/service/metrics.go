package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sat"
)

// waitRing retains the most recent queue-wait durations (submission to
// worker pickup) in a fixed ring, so the metrics endpoints can report live
// p50/p99 latency without unbounded history. Percentile reads copy and sort
// the ring — at 512 entries that is cheap and only paid on scrape.
type waitRing struct {
	mu   sync.Mutex
	buf  [512]int64 // nanoseconds
	next int
	n    int
}

func (r *waitRing) record(d time.Duration) {
	r.mu.Lock()
	r.buf[r.next] = int64(d)
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// percentiles returns the p50 and p99 of the retained waits (zeros when no
// job has been picked up yet).
func (r *waitRing) percentiles() (p50, p99 time.Duration) {
	r.mu.Lock()
	vals := append([]int64(nil), r.buf[:r.n]...)
	r.mu.Unlock()
	if len(vals) == 0 {
		return 0, 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(vals)-1))
		return time.Duration(vals[i])
	}
	return at(0.50), at(0.99)
}

// metrics holds the service's monotonic counters. Everything is atomic so
// workers and HTTP handlers never contend on a lock for bookkeeping; gauges
// (queue depth, cache size) are read from their owning structures at render
// time instead of being duplicated here.
type metrics struct {
	submitted     int64 // jobs accepted into the system (including cache hits)
	rejected      int64 // submissions refused because the queue was full
	shed          int64 // predicted-expensive submissions shed over the watermark
	quotaRejected int64 // submissions refused by a client's token bucket
	completed     int64 // jobs reaching StateDone (cache hits included)
	failed        int64 // jobs reaching StateFailed
	cancelled     int64 // jobs reaching StateCancelled
	synthRuns     int64 // actual syntheses executed by workers
	running       int64 // gauge: jobs currently executing

	// runs holds, per metricTable row that folds run telemetry, the total
	// over every finished synthesis (indexed like metricTable).
	runs []atomic.Int64
}

func newMetrics() metrics { return metrics{runs: make([]atomic.Int64, len(metricTable))} }

func (m *metrics) add(p *int64, v int64) { atomic.AddInt64(p, v) }
func (m *metrics) get(p *int64) int64    { return atomic.LoadInt64(p) }

// addRun counts one finished synthesis and folds its telemetry into every
// run-fed row of metricTable.
func (m *metrics) addRun(t *core.Telemetry) {
	m.add(&m.synthRuns, 1)
	for i, row := range metricTable {
		if row.run == nil {
			continue
		}
		p, v := &m.runs[i], row.run(t)
		switch row.fold {
		case foldSum:
			p.Add(v)
		case foldLast:
			p.Store(v)
		case foldMax:
			for cur := p.Load(); v > cur; cur = p.Load() {
				if p.CompareAndSwap(cur, v) {
					break
				}
			}
		}
	}
}

// fold says how a run-fed metric combines per-run telemetry values.
type fold int

const (
	foldSum  fold = iota // counter: total over all runs
	foldMax              // gauge: largest value seen in any run
	foldLast             // gauge: the most recently finished run's value
)

// metric is one row of metricTable.
type metric struct {
	name string // Prometheus series name
	key  string // /metrics.json key
	kind string // Prometheus type: "counter" or "gauge"
	help string
	// Exactly one of read and run is set. read samples service state at
	// render time; run extracts a finished synthesis's telemetry value,
	// which addRun folds into the service total as fold says.
	read func(s *Service) float64
	run  func(t *core.Telemetry) int64
	fold fold
}

// count and gauge build rows that sample service state; sum, peak and last
// build rows fed by run telemetry.
func count(name, key, help string, read func(*Service) float64) metric {
	return metric{name: name, key: key, kind: "counter", help: help, read: read}
}

func gauge(name, key, help string, read func(*Service) float64) metric {
	return metric{name: name, key: key, kind: "gauge", help: help, read: read}
}

func sum(name, key, help string, run func(*core.Telemetry) int64) metric {
	return metric{name: name, key: key, kind: "counter", help: help, run: run, fold: foldSum}
}

func peak(name, key, help string, run func(*core.Telemetry) int64) metric {
	return metric{name: name, key: key, kind: "gauge", help: help, run: run, fold: foldMax}
}

func last(name, key, help string, run func(*core.Telemetry) int64) metric {
	return metric{name: name, key: key, kind: "gauge", help: help, run: run, fold: foldLast}
}

// load reads one counter atomically, as a sample value.
func load(p *int64) float64 { return float64(atomic.LoadInt64(p)) }

// satOf returns the run's solver counters (zero unless it verified under the
// SAT backend).
func satOf(t *core.Telemetry) sat.Stats {
	if t.SAT == nil {
		return sat.Stats{}
	}
	return *t.SAT
}

// metricTable is the one list of the service's metrics: the Prometheus text
// at /metrics and the JSON at /metrics.json are both rendered from it, in
// this order, and addRun folds run telemetry through it.
var metricTable = []metric{
	count("ftrepaird_jobs_submitted_total", "submitted", "Jobs accepted for processing.",
		func(s *Service) float64 { return load(&s.metrics.submitted) }),
	count("ftrepaird_jobs_rejected_total", "rejected", "Submissions rejected because the queue was full.",
		func(s *Service) float64 { return load(&s.metrics.rejected) }),
	count("ftrepaird_jobs_shed_total", "shed", "Predicted-expensive submissions shed over the queue watermark.",
		func(s *Service) float64 { return load(&s.metrics.shed) }),
	count("ftrepaird_quota_rejected_total", "quota_rejected", "Submissions rejected by per-client quotas.",
		func(s *Service) float64 { return load(&s.metrics.quotaRejected) }),
	count("ftrepaird_jobs_completed_total", "completed", "Jobs finished successfully.",
		func(s *Service) float64 { return load(&s.metrics.completed) }),
	count("ftrepaird_jobs_failed_total", "failed", "Jobs finished with an error.",
		func(s *Service) float64 { return load(&s.metrics.failed) }),
	count("ftrepaird_jobs_cancelled_total", "cancelled", "Jobs cancelled by deadline or client.",
		func(s *Service) float64 { return load(&s.metrics.cancelled) }),
	count("ftrepaird_synthesis_total", "synthesis_runs", "Repair syntheses actually executed (cache hits excluded).",
		func(s *Service) float64 { return load(&s.metrics.synthRuns) }),
	count("ftrepaird_cache_hits_total", "cache_hits", "Results served from the content-addressed cache.",
		func(s *Service) float64 { hits, _ := s.cache.Counters(); return float64(hits) }),
	count("ftrepaird_cache_misses_total", "cache_misses", "Cache lookups that required a synthesis.",
		func(s *Service) float64 { _, misses := s.cache.Counters(); return float64(misses) }),
	gauge("ftrepaird_cache_hit_ratio", "cache_hit_rate", "Fraction of lookups served from cache.",
		func(s *Service) float64 {
			hits, misses := s.cache.Counters()
			if hits+misses == 0 {
				return 0
			}
			return float64(hits) / float64(hits+misses)
		}),

	gauge("ftrepaird_queue_depth", "queue_depth", "Jobs waiting in the bounded work queue (both lanes).",
		func(s *Service) float64 { return float64(s.q.depth()) }),
	gauge("ftrepaird_jobs_running", "running", "Jobs currently being synthesized.",
		func(s *Service) float64 { return load(&s.metrics.running) }),
	gauge("ftrepaird_cache_entries", "cache_entries", "Entries resident in the result cache.",
		func(s *Service) float64 { return float64(s.cache.Len()) }),
	gauge("ftrepaird_cache_spill_entries", "cache_spill_entries", "Entries resident in the persistent cache spill.",
		func(s *Service) float64 { return float64(s.cache.SpillLen()) }),
	count("ftrepaird_cache_spill_hits_total", "cache_spill_hits", "Memory misses served from the persistent spill.",
		func(s *Service) float64 { hits, _, _ := s.cache.SpillCounters(); return float64(hits) }),
	count("ftrepaird_cache_spill_rejected_total", "cache_spill_rejected", "Spill entries rejected at load (corrupt or mismatched).",
		func(s *Service) float64 { _, bad, _ := s.cache.SpillCounters(); return float64(bad) }),
	count("ftrepaird_cache_spill_errors_total", "cache_spill_errors", "Failed spill writes (spill is best-effort).",
		func(s *Service) float64 { _, _, errs := s.cache.SpillCounters(); return float64(errs) }),
	gauge("ftrepaird_workers", "workers", "Size of the worker pool.",
		func(s *Service) float64 { return float64(s.cfg.Workers) }),
	gauge("ftrepaird_queue_wait_p50_ms", "queue_wait_p50_ms", "Median queue wait of recent jobs, in milliseconds.",
		func(s *Service) float64 { p50, _ := s.waits.percentiles(); return float64(p50.Milliseconds()) }),
	gauge("ftrepaird_queue_wait_p99_ms", "queue_wait_p99_ms", "99th-percentile queue wait of recent jobs, in milliseconds.",
		func(s *Service) float64 { _, p99 := s.waits.percentiles(); return float64(p99.Milliseconds()) }),

	sum("ftrepaird_phase_compile_ns_total", "compile_ns", "Wall time spent compiling models to BDDs.",
		func(t *core.Telemetry) int64 { return t.CompileNS }),
	sum("ftrepaird_phase_step1_ns_total", "step1_ns", "Wall time spent in Step 1 (Add-Masking).",
		func(t *core.Telemetry) int64 { return t.Step1NS }),
	sum("ftrepaird_phase_step2_ns_total", "step2_ns", "Wall time spent in Step 2 (realize).",
		func(t *core.Telemetry) int64 { return t.Step2NS }),
	sum("ftrepaird_phase_verify_ns_total", "verify_ns", "Wall time spent in independent verification.",
		func(t *core.Telemetry) int64 { return t.VerifyNS }),
	sum("ftrepaird_phase_witness_ns_total", "witness_ns", "Wall time spent extracting witness traces.",
		func(t *core.Telemetry) int64 { return t.WitnessNS }),
	sum("ftrepaird_phase_repair_ns_total", "total_ns", "Wall time spent in repair (Step 1 + Step 2 + outer loop).",
		func(t *core.Telemetry) int64 { return t.TotalNS }),

	sum("ftrepaird_bdd_gc_runs_total", "bdd_gc_runs", "BDD garbage collections across finished jobs.",
		func(t *core.Telemetry) int64 { return t.BDDGCRuns }),
	sum("ftrepaird_bdd_nodes_freed_total", "bdd_nodes_freed", "BDD nodes reclaimed across finished jobs.",
		func(t *core.Telemetry) int64 { return t.BDDNodesFreed }),
	peak("ftrepaird_bdd_peak_nodes", "bdd_peak_nodes", "Largest per-job peak live BDD node count observed.",
		func(t *core.Telemetry) int64 { return t.BDDPeakNodes }),
	last("ftrepaird_bdd_live_nodes", "bdd_live_nodes", "Live BDD node count of the most recently finished job.",
		func(t *core.Telemetry) int64 { return t.BDDNodesLive }),

	sum("ftrepaird_fixpoint_rounds_total", "fix_rounds", "Reachability-scheduler rounds across finished jobs.",
		func(t *core.Telemetry) int64 { return t.FixRounds }),
	sum("ftrepaird_fixpoint_images_total", "fix_images", "Frontier images computed across finished jobs.",
		func(t *core.Telemetry) int64 { return t.FixImages }),

	sum("ftrepaird_sat_conflicts_total", "sat_conflicts", "CDCL conflicts across jobs verified under the SAT backend.",
		func(t *core.Telemetry) int64 { return satOf(t).Conflicts }),
	sum("ftrepaird_sat_decisions_total", "sat_decisions", "CDCL decisions across jobs verified under the SAT backend.",
		func(t *core.Telemetry) int64 { return satOf(t).Decisions }),
	sum("ftrepaird_sat_propagations_total", "sat_propagations", "CDCL unit propagations across jobs verified under the SAT backend.",
		func(t *core.Telemetry) int64 { return satOf(t).Propagations }),
	sum("ftrepaird_sat_learned_clauses_total", "sat_learned_clauses", "Clauses learned across jobs verified under the SAT backend.",
		func(t *core.Telemetry) int64 { return satOf(t).Learned }),
	sum("ftrepaird_sat_restarts_total", "sat_restarts", "CDCL restarts across jobs verified under the SAT backend.",
		func(t *core.Telemetry) int64 { return satOf(t).Restarts }),
	peak("ftrepaird_sat_max_decision_level", "sat_max_decision_level", "Deepest CDCL decision level observed in any job.",
		func(t *core.Telemetry) int64 { return satOf(t).MaxLevel }),
}

// metricValue samples row i of metricTable.
func (s *Service) metricValue(i int) float64 {
	if read := metricTable[i].read; read != nil {
		return read(s)
	}
	return float64(s.metrics.runs[i].Load())
}

// writeMetrics renders metricTable in the Prometheus text exposition format.
func (s *Service) writeMetrics(w io.Writer) {
	for i, m := range metricTable {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", m.name, m.help, m.name, m.kind,
			m.name, strconv.FormatFloat(s.metricValue(i), 'f', -1, 64))
	}
}

// MetricsSnapshot is the JSON shape of GET /metrics.json: every metric of the
// Prometheus text endpoint under its JSON key (submitted, synthesis_runs,
// cache_hit_rate, compile_ns, fix_images, ...), for tooling that prefers a
// structured read (dashboards, tests, jq one-liners).
type MetricsSnapshot map[string]float64

// Metrics snapshots the service's counters and gauges.
func (s *Service) Metrics() MetricsSnapshot {
	snap := make(MetricsSnapshot, len(metricTable))
	for i, m := range metricTable {
		snap[m.key] = s.metricValue(i)
	}
	return snap
}
