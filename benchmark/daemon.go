package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/service"
)

const (
	// daemonLimitMS is the latency limit on the tail that max_rate_jobs_s
	// must meet.
	daemonLimitMS = 250.0
	// daemonTailP is the job_ms_tail percentile, of the closed loop and of
	// the replay: about 20 of a 25-second run's jobs lie beyond it.
	daemonTailP = 99
	// queueTailP is the percentile of service.queue_wait_ms_tail, over the
	// traced open loop's few hundred arrivals.
	queueTailP = 95
	// replayArrivals is the number of arrivals each replayed rate offers;
	// the measured service times are reused cyclically.
	replayArrivals = 20000
	// daemonRate is the offered rate (jobs/s) of the traced run's open
	// loop: about half the capacity of a default service on one processor
	// (see METRICS.md).
	daemonRate = 40.0
	// daemonPerSecond is the closed loop's nominal throughput in jobs per
	// CPU second (see jobCount).
	daemonPerSecond = 80.0
)

// daemonLadder is the fixed rate ladder (jobs/s) whose replayed tail every
// untraced result records: 5 to 400 in steps of 10%, rounded to tenths.
var daemonLadder = func() []float64 {
	var l []float64
	for r := 5.0; r <= 400; r *= 1.1 {
		l = append(l, math.Round(r*10)/10)
	}
	return l
}()

// daemonInfo records the daemon workload's queue replay and schedule.
type daemonInfo struct {
	Workers int     `json:"service_workers"`
	LimitMS float64 `json:"latency_limit_ms"`
	// Ladder is the replayed tail at every ladder rate.
	Ladder []rung `json:"replay_ladder,omitempty"`
	// OfferedRate and LateMSMax describe the traced run's open loop.
	OfferedRate float64 `json:"offered_rate_jobs_s,omitempty"`
	LateMSMax   float64 `json:"loadgen_late_ms_max,omitempty"`
	CacheHits   int     `json:"cache_hits"`
}

// rung is one rate of the ladder.
type rung struct {
	Rate   float64 `json:"rate_jobs_s"`
	TailMS float64 `json:"tail_ms"`
	Pass   bool    `json:"pass"`
}

// daemonSvc is one started service with its job stream and warm-up job.
type daemonSvc struct {
	svc  *service.Service
	gen  *daemonGen
	warm *input
}

// retainedJobs is how many finished job records a default service keeps:
// 16 × its default QueueDepth of 64.
const retainedJobs = 16 * 64

// daemonMemoryLimit paces the garbage collector in the daemon workload in
// place of GOGC: collections start when the heap reaches this size. Under
// the default GOGC=100 the heap goal after a collection depends on whether
// it fell inside a job, with its 69 MB of caches live, or between jobs,
// and the daemon's jobs flipped between two regimes, about 0.7 and 1.0
// collections and 20 and 30 ms of CPU per job, from one stretch of a run
// to the next. A fixed limit gives one regime (see METRICS.md).
const daemonMemoryLimit = 512 << 20

// daemonSetup generates the seeded job stream, starts a service with the
// default configuration, and runs one excluded warm-up job through it.
// Every set-up starts from a collected heap, so none pays for the garbage
// of the one before.
func daemonSetup(ctx context.Context, seed int64, exp map[string]counts, r *result) (*daemonSvc, error) {
	runtime.GC()
	c0 := cpuMS()
	s := &daemonSvc{svc: service.New(service.Config{}), gen: newDaemonGen(seed)}
	warm, err := daemonJob("tmr", "warm", daemonBudgetBase-1)
	if err != nil {
		s.svc.Close()
		return nil, err
	}
	warm.id = "tmr#warm"
	s.warm = warm
	if p := check(submitWait(ctx, s.svc, warm), exp); len(p) > 0 {
		r.fail(p...)
	}
	r.SetupS = append(r.SetupS, (cpuMS()-c0)/1000)
	return s, nil
}

// fill brings a started service to the state of a long-running one before
// anything is measured: it resubmits the warm-up job until the service
// keeps as many finished job records as it ever will. Every garbage
// collection marks those records, and the daemon's jobs set one off about
// once a job, so a fresh service's jobs would get slower as the records
// pile up (see METRICS.md). The resubmissions are cache reads, together
// well under a second.
func (s *daemonSvc) fill(ctx context.Context, exp map[string]counts, r *result) {
	for i := 0; i < retainedJobs; i++ {
		o := submitWait(ctx, s.svc, s.warm)
		if p := check(o, exp); len(p) > 0 || !o.cacheHit {
			r.fail(fmt.Sprintf("filling the service: %v (cache hit %v)", p, o.cacheHit))
			return
		}
	}
}

// submitWait submits one job and waits for its result, timing the
// interval on the CPU and the wall clock.
func submitWait(ctx context.Context, svc *service.Service, in *input) outcome {
	c0, t0 := cpuMS(), time.Now()
	v, err := svc.Submit(in.spec)
	if err != nil {
		err = fmt.Errorf("refused: %w", err)
	} else if !v.State.Terminal() {
		v, err = svc.Wait(ctx, v.ID)
	}
	c1, t1 := cpuMS(), time.Now()
	o := viewOutcome(in, v, err)
	o.ms, o.wallMS = c1-c0, durMS(t1.Sub(t0))
	return o
}

// segment is the result of one open-loop stretch of arrivals.
type segment struct {
	outs      []outcome
	views     []service.JobView
	lateMaxMS float64
	refused   int
}

// expGaps returns n seeded exponential inter-arrival gaps scaled to a mean
// of exactly 1, so that n arrivals at rate r span exactly n/r seconds.
func expGaps(rng *rand.Rand, n int) []float64 {
	gaps := make([]float64, n)
	sum := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		sum += gaps[i]
	}
	for i := range gaps {
		gaps[i] *= float64(n) / sum
	}
	return gaps
}

// openLoop offers n jobs from the service's job stream at the given mean
// rate, with gaps from expGaps. Each job is timed from when it was due, so a
// stalled generator shows as latency; every submission is waited for
// before it returns. With a tracer, each job's service timestamps and
// RunReport phase times become its spans.
func openLoop(ctx context.Context, s *daemonSvc, n int, rate float64, rng *rand.Rand, t *tracer, jobBase int) (*segment, error) {
	ins := make([]*input, n)
	for i := range ins {
		in, err := s.gen.gen()
		if err != nil {
			return nil, err
		}
		ins[i] = in
	}
	gaps := expGaps(rng, n)

	seg := &segment{outs: make([]outcome, n), views: make([]service.JobView, n)}
	var mu sync.Mutex
	record := func(i int, v service.JobView, err error, due time.Time) {
		done := time.Now()
		o := viewOutcome(ins[i], v, err)
		o.ms = durMS(done.Sub(due))
		o.wallMS = o.ms
		mu.Lock()
		seg.outs[i], seg.views[i] = o, v
		mu.Unlock()
		if t != nil {
			traceJob(t, jobBase+i, due, done, v)
		}
	}

	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	offset := 0.0
	for i, in := range ins {
		due := start.Add(time.Duration(offset * float64(time.Second)))
		offset += gaps[i] / rate
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		seg.lateMaxMS = max(seg.lateMaxMS, durMS(time.Since(due)))
		v, err := s.svc.Submit(in.spec)
		switch {
		case err != nil:
			seg.refused++
			record(i, v, fmt.Errorf("refused: %w", err), due)
		case v.State.Terminal():
			record(i, v, nil, due)
		default:
			wg.Add(1)
			go func(i int, id string, due time.Time) {
				defer wg.Done()
				v, err := s.svc.Wait(ctx, id)
				record(i, v, err, due)
			}(i, v.ID, due)
		}
	}
	wg.Wait()
	return seg, nil
}

// viewOutcome reads a finished daemon job's verdict and counts off its
// JobView.
func viewOutcome(in *input, v service.JobView, err error) outcome {
	o := outcome{in: in, cacheHit: v.CacheHit}
	switch {
	case err != nil:
		o.err = err.Error()
	case v.State != service.StateDone || v.Result == nil:
		o.err = fmt.Sprintf("job %s ended %s: %s", v.ID, v.State, v.Error)
	default:
		rep := v.Result
		o.verified = rep.Verified != nil && *rep.Verified
		for _, c := range rep.Checks {
			if !c.OK && !c.Warning {
				o.failures = append(o.failures, c.Name)
			}
		}
		o.counts = counts{Reachable: rep.ReachableStates, Invariant: rep.InvariantStates, FaultSpan: rep.FaultSpanStates}
	}
	return o
}

// traceJob turns one daemon job into spans: the job from its due time to
// its completion, its queue wait and its run from the service's
// timestamps, and the RunReport's phase times as children of the run, laid
// end to end from its start (the report keeps durations, not start times).
func traceJob(t *tracer, job int, due, done time.Time, v service.JobView) {
	hit := 0.0
	if v.CacheHit {
		hit = 1
	}
	root := t.add(job, 0, "job", due, done, map[string]float64{"cache_hit": hit})
	if v.StartedAt == nil || v.FinishedAt == nil || v.CacheHit {
		return
	}
	t.add(job, root, "service.queue", v.SubmittedAt, *v.StartedAt, nil)
	run := t.add(job, root, "service.run", *v.StartedAt, *v.FinishedAt, nil)
	if v.Result == nil {
		return
	}
	rep := v.Result
	at := *v.StartedAt
	for _, p := range []struct {
		name string
		ns   int64
	}{{"program.compile", rep.CompileNS}, {"repair.step1", rep.Step1NS}, {"repair.step2", rep.Step2NS},
		{"witness", rep.WitnessNS}, {"verify", rep.VerifyNS}} {
		if p.ns <= 0 {
			continue
		}
		end := at.Add(time.Duration(p.ns))
		t.add(job, run, p.name, at, end, nil)
		at = end
	}
}

// runDaemon measures the daemon workload against an in-process service,
// with the collector paced by daemonMemoryLimit. Untraced, one client
// submits the run's jobs from the seeded job stream in a closed loop, each
// timed on the CPU clock; max_rate_jobs_s then replays the measured
// service times through seeded open-loop arrivals. Traced, an open loop at
// the fixed rate runs once untraced and once traced on a fresh service,
// then one block of distinct jobs is replayed twice through the layer
// calls for the per-layer numbers.
func runDaemon(ctx context.Context, cfg config, exp map[string]counts, r *result) error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(daemonMemoryLimit))
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	var s *daemonSvc
	for k := 0; k < setups; k++ {
		if s != nil {
			s.svc.Close()
		}
		var err error
		if s, err = daemonSetup(ctx, cfg.seed, exp, r); err != nil {
			return err
		}
	}
	defer func() { s.svc.Close() }()
	info := &daemonInfo{Workers: runtime.GOMAXPROCS(0), LimitMS: daemonLimitMS}
	r.Daemon = info
	s.fill(ctx, exp, r)
	if cfg.trace {
		return traceDaemon(ctx, cfg, s, exp, r)
	}

	n := jobCount(daemonPerSecond, float64(cfg.seconds), len(daemonBlock))
	rt0 := readRuntime()
	var outs []outcome
	busy, start := 0.0, time.Now()
	for i := 0; i < n && !overtime(start, float64(cfg.seconds)); i++ {
		in, err := s.gen.gen()
		if err != nil {
			return err
		}
		o := submitWait(ctx, s.svc, in)
		busy += o.ms
		outs = append(outs, o)
	}
	rt := rt0.to(readRuntime())
	bad := checkClosed(ctx, outs, exp, r)
	r.Attempted, r.Failed = len(outs), len(bad)
	ms, wallMS := okLatencies(outs, bad)
	for _, o := range outs {
		if o.cacheHit {
			info.CacheHits++
		}
	}
	r.set("setup_s", median(r.SetupS))
	r.set("job_ms_p50", median(ms))
	r.JobMS, r.JobWallMS = ms, wallMS
	tail, at := tailOf(ms, daemonTailP)
	r.set("job_ms_tail", tail)
	r.Tail = &at
	r.set("jobs_per_s", float64(len(ms))/(busy/1000))
	r.set("alloc_mb_per_job", rt.allocMB/float64(len(outs)))
	r.set("recovery_cost", 1) // no cost model: its own cost-blind run

	// The replay draws the service times in a seeded random order, so
	// that it sees their distribution and not their drift over the run
	// (see METRICS.md).
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	service := append([]float64(nil), ms...)
	rng.Shuffle(len(service), func(i, j int) { service[i], service[j] = service[j], service[i] })
	gaps := expGaps(rng, replayArrivals)
	for _, rate := range daemonLadder {
		tail := replayTail(service, gaps, info.Workers, rate)
		info.Ladder = append(info.Ladder, rung{Rate: rate, TailMS: tail, Pass: tail < daemonLimitMS})
	}
	r.set("max_rate_jobs_s", replayMaxRate(service, gaps, info.Workers))
	return nil
}

// replayTail returns the job_ms_tail percentile of the time in system, in
// ms, of the arrivals with
// the given gaps at the given mean rate on a first-come first-served queue
// with k workers, each job taking the service time of the job in its place
// in the measured stream.
func replayTail(service, gaps []float64, k int, rate float64) float64 {
	free := make([]float64, k) // when each worker is next free, ms
	inSystem := make([]float64, len(gaps))
	at := 0.0
	for i, g := range gaps {
		at += g * 1000 / rate
		w := 0
		for j := range free {
			if free[j] < free[w] {
				w = j
			}
		}
		free[w] = max(at, free[w]) + service[i%len(service)]
		inSystem[i] = free[w] - at
	}
	return percentile(inSystem, daemonTailP)
}

// replayMaxRate is the highest rate whose replayed tail stays under the
// latency limit, found by bisection to a millionth of the capacity; a rate
// at or above the capacity (k workers kept busy) grows a backlog and never
// counts. The tail never falls as the rate rises: the same arrivals only
// come closer together.
func replayMaxRate(service, gaps []float64, k int) float64 {
	sum := 0.0
	for _, s := range service {
		sum += s
	}
	if len(service) == 0 || sum <= 0 {
		return 0
	}
	lo, hi := 0.0, float64(k)*1000*float64(len(service))/sum
	for hi-lo > hi*1e-6 {
		mid := (lo + hi) / 2
		if replayTail(service, gaps, k, mid) < daemonLimitMS {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// traceDaemon is the daemon workload's traced run.
func traceDaemon(ctx context.Context, cfg config, s *daemonSvc, exp map[string]counts, r *result) error {
	info := r.Daemon
	info.OfferedRate = daemonRate
	// The untraced and the traced segment each take half the run.
	n := max(int(daemonRate*float64(cfg.seconds)/2), 8)
	rt0 := readRuntime()
	main, err := openLoop(ctx, s, n, daemonRate, rand.New(rand.NewSource(cfg.seed)), nil, 0)
	if err != nil {
		return err
	}
	rt := rt0.to(readRuntime())
	rss := peakRSSMB()
	info.LateMSMax = main.lateMaxMS
	bad := checkClosed(ctx, main.outs, exp, r)
	r.Attempted, r.Failed = n, len(bad)
	ms, _ := okLatencies(main.outs, bad)
	for _, o := range main.outs {
		if o.cacheHit {
			info.CacheHits++
		}
	}

	// The same arrivals against a fresh service, so that the same jobs
	// miss the cache again. s takes the fresh service, which the caller
	// closes.
	s.svc.Close()
	fresh, err := daemonSetup(ctx, cfg.seed, exp, r)
	if err != nil {
		return err
	}
	*s = *fresh
	s.fill(ctx, exp, r)
	t := newTracer()
	traced, err := openLoop(ctx, s, n, daemonRate, rand.New(rand.NewSource(cfg.seed)), t, 1)
	if err != nil {
		return err
	}
	tbad := checkClosed(ctx, traced.outs, exp, r)
	for i := range traced.outs {
		if !bad[i] && !tbad[i] && !sameOutcome(main.outs[i], traced.outs[i]) {
			r.fail(fmt.Sprintf("%s: traced run differs from untraced run", main.outs[i].in.id))
		}
	}
	var waits, runs []float64
	hits := 0
	for _, v := range traced.views {
		if v.CacheHit {
			hits++
			continue
		}
		if v.StartedAt != nil && v.FinishedAt != nil {
			waits = append(waits, durMS(v.StartedAt.Sub(v.SubmittedAt)))
			runs = append(runs, durMS(v.FinishedAt.Sub(*v.StartedAt)))
		}
	}
	r.set("service.queue_wait_ms_p50", median(waits))
	wtail, _ := tailOf(waits, queueTailP)
	r.set("service.queue_wait_ms_tail", wtail)
	r.set("service.run_ms_p50", median(runs))
	r.set("service.cache_hit_ratio", float64(hits)/float64(n))
	r.set("service.rejected_ratio", float64(traced.refused)/float64(n))
	r.set("loadgen.late_ms_max", main.lateMaxMS)
	r.set("peak_rss_mb", rss)
	r.set("runtime.gc_cycles_per_job", rt.gcCycles/float64(n))
	r.set("runtime.gc_cpu_fraction", rt.gcFraction)
	tms, _ := okLatencies(traced.outs, tbad)
	r.set("trace.overhead_ratio", median(tms)/median(ms))

	// Layer replay: one block of distinct jobs, each run twice through the
	// layer calls on the daemon's job configuration (serial engine, verify
	// on the repair's engine).
	block := newDaemonGen(cfg.seed)
	var replay []outcome
	job := n + 1
	for i := 0; i < len(daemonBlock); i++ {
		in, err := block.gen()
		if err != nil {
			return err
		}
		if in.resubmit {
			continue
		}
		for rep := 0; rep < 2; rep++ {
			o := runLayers(ctx, in, layerConfig{workers: 1, sharedVerify: true}, t, job)
			job++
			if p := check(o, exp); len(p) > 0 {
				r.fail(p...)
			}
			replay = append(replay, o)
		}
	}
	layerMetrics(r, replay)
	r.spans = t.finish()
	return nil
}
