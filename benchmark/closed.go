package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"
)

// closedSpec describes a closed-loop workload: one client that submits its
// next job only when the previous one has returned a verified result.
type closedSpec struct {
	deck func(seed int64) ([]*input, error)
	// warm is the family of the excluded warm-up job run at set-up (the
	// smallest in the cycle, the same for every seed).
	warm string
	// tailP is the job_ms_tail percentile (see tailSpec).
	tailP float64
	// perSecond sizes a run: see jobCount.
	perSecond float64
}

var (
	closedChain = closedSpec{deck: chainDeck, warm: "sc/11", tailP: 75, perSecond: 3.3}
	closedByz   = closedSpec{deck: byzDeck, warm: "bafs/3", tailP: 95, perSecond: 9.5}
)

// jobCount is the number of jobs a run of the given length measures: whole
// blocks of jobs (for the closed loops, whole job cycles), as many as take
// that long on the reference host at perSecond jobs per CPU second. Every
// run of a workload measures the same jobs in number and mix, whatever the
// host.
func jobCount(perSecond, seconds float64, block int) int {
	return max(int(math.Round(perSecond*seconds/float64(block))), 1) * block
}

// runClosed measures a closed-loop workload. Untraced, it runs the run's
// jobs through repro.Repair and repro.Verify. Traced, it runs half as many
// that way, then repeats the same jobs through the layer calls with spans
// recorded.
func runClosed(ctx context.Context, cfg config, spec closedSpec, exp map[string]counts, r *result) error {
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	var deck []*input
	for k := 0; k < setups; k++ {
		// Every set-up starts from a collected heap, so none pays for
		// the garbage of the one before.
		runtime.GC()
		c0 := cpuMS()
		d, err := spec.deck(cfg.seed)
		if err != nil {
			return err
		}
		var warm *input
		for _, in := range d {
			if in.family == spec.warm {
				warm = in
				break
			}
		}
		if warm == nil {
			return fmt.Errorf("job cycle has no %s warm-up job", spec.warm)
		}
		if p := check(runPublic(ctx, warm), exp); len(p) > 0 {
			r.fail(p...)
		}
		r.SetupS = append(r.SetupS, (cpuMS()-c0)/1000)
		deck = d
	}

	seconds := float64(cfg.seconds)
	if cfg.trace {
		seconds /= 2
	}
	n := jobCount(spec.perSecond, seconds, len(deck))
	rt0 := readRuntime()
	var outs []outcome
	busy, start := 0.0, time.Now()
	for i := 0; i < n && !overtime(start, seconds); i++ {
		o := runPublic(ctx, deck[i%len(deck)])
		busy += o.ms
		outs = append(outs, o)
	}
	rt := rt0.to(readRuntime())
	rss := peakRSSMB()

	bad := checkClosed(ctx, outs, exp, r)
	r.Attempted, r.Failed = len(outs), len(bad)
	ms, wallMS := okLatencies(outs, bad)

	if !cfg.trace {
		r.set("setup_s", median(r.SetupS))
		r.set("job_ms_p50", median(ms))
		r.JobMS, r.JobWallMS = ms, wallMS
		tail, at := tailOf(ms, spec.tailP)
		r.set("job_ms_tail", tail)
		r.Tail = &at
		rate := float64(len(ms)) / (busy / 1000)
		r.set("jobs_per_s", rate)
		// One closed-loop client offers exactly the load it is served, so
		// the highest rate served is the measured throughput.
		r.set("max_rate_jobs_s", rate)
		r.set("alloc_mb_per_job", rt.allocMB/float64(len(outs)))
		r.set("recovery_cost", recoveryCost(outs))
		return nil
	}

	// Traced pass: the same jobs in the same order, one span tree each.
	t := newTracer()
	traced := make([]outcome, len(outs))
	for i := range outs {
		traced[i] = runLayers(ctx, deck[i%len(deck)], layerConfig{}, t, i+1)
		if p := check(traced[i], exp); len(p) > 0 {
			r.fail(p...)
			continue
		}
		if !sameOutcome(outs[i], traced[i]) {
			r.fail(fmt.Sprintf("%s: traced run differs from untraced run", outs[i].in.id))
		}
	}
	r.spans = t.finish()
	layerMetrics(r, traced)
	tms, _ := okLatencies(traced, nil)
	r.set("trace.overhead_ratio", median(tms)/median(ms))
	r.set("runtime.gc_cycles_per_job", rt.gcCycles/float64(len(outs)))
	r.set("runtime.gc_cpu_fraction", rt.gcFraction)
	r.set("peak_rss_mb", rss)
	for _, name := range []string{"service.queue_wait_ms_p50", "service.queue_wait_ms_tail",
		"service.run_ms_p50", "service.cache_hit_ratio", "service.rejected_ratio", "loadgen.late_ms_max"} {
		r.set(name, 0)
	}
	return nil
}

// checkClosed checks every closed-loop job and returns the indexes of the
// failed ones. Costed jobs are also compared against one cost-blind
// reference run per distinct input: the verdict must be the same and the
// recovery no costlier. Every check runs after the timed window.
func checkClosed(ctx context.Context, outs []outcome, exp map[string]counts, r *result) map[int]bool {
	bad := map[int]bool{}
	type ref struct {
		verified bool
		failures []string
		achieved float64
	}
	refs := map[string]*ref{}
	for i := range outs {
		o := &outs[i]
		if p := check(*o, exp); len(p) > 0 {
			r.fail(p...)
			bad[i] = true
			continue
		}
		if o.in.cost == nil {
			continue
		}
		rf, ok := refs[o.in.id]
		if !ok {
			v, f, a, err := costBlind(ctx, o.in)
			if err != nil {
				r.fail(fmt.Sprintf("%s: cost-blind reference: %v", o.in.id, err))
				bad[i] = true
				continue
			}
			rf = &ref{v, f, a}
			refs[o.in.id] = rf
		}
		switch {
		case !sameVerdict(o.verified, o.failures, rf.verified, rf.failures):
			r.fail(fmt.Sprintf("%s: verdict differs from the cost-blind run", o.in.id))
			bad[i] = true
		case o.achieved > rf.achieved || rf.achieved <= 0:
			r.fail(fmt.Sprintf("%s: recovery cost %g, cost-blind %g", o.in.id, o.achieved, rf.achieved))
			bad[i] = true
		default:
			o.blind = rf.achieved
		}
	}
	return bad
}

// overtime reports whether a measured loop meant to take the given number
// of seconds has run three times as long on the wall clock, so that a run
// on a crowded host stops early and still ends in time.
func overtime(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() >= 3*seconds
}

// okLatencies returns the latencies and the wall-clock times of the jobs
// not marked bad.
func okLatencies(outs []outcome, bad map[int]bool) (ms, wallMS []float64) {
	for i, o := range outs {
		if o.err == "" && !bad[i] {
			ms = append(ms, o.ms)
			wallMS = append(wallMS, o.wallMS)
		}
	}
	return ms, wallMS
}

// recoveryCost is the mean, over the distinct costed inputs that ran, of
// the synthesized recovery's cost divided by the cost-blind repair's under
// the same weights. A run without a cost model is its own cost-blind run,
// so its recovery_cost is 1.
func recoveryCost(outs []outcome) float64 {
	seen := map[string]bool{}
	sum, n := 0.0, 0
	for _, o := range outs {
		if o.blind <= 0 || seen[o.in.id] {
			continue
		}
		seen[o.in.id] = true
		sum += o.achieved / o.blind
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// sameOutcome reports whether two runs of one input reached the same
// verdict, state counts and recovery cost.
func sameOutcome(a, b outcome) bool {
	return sameVerdict(a.verified, a.failures, b.verified, b.failures) &&
		a.counts == b.counts && a.achieved == b.achieved
}

// layerMetrics sets the per-layer metrics measured by the traced pipeline:
// times are medians over the traced jobs, work counters are means over the
// distinct inputs (each counted once, from its first run). It also records
// the deterministic counters and reports every counter that does not repeat
// between two runs of the same input.
func layerMetrics(r *result, traced []outcome) {
	var parse, compile, engine, step1, step2, other, wit, ver []float64
	first := map[string]*layerStats{}
	r.Counters = map[string]workCounters{}
	for _, o := range traced {
		l := o.layer
		if o.err != "" || l == nil {
			continue
		}
		if o.in.spec.Model != "" {
			parse = append(parse, l.parseMS)
		}
		compile = append(compile, l.compileMS)
		engine = append(engine, l.engineMS)
		step1 = append(step1, l.step1MS)
		step2 = append(step2, l.step2MS)
		other = append(other, l.otherMS)
		wit = append(wit, l.witnessMS)
		ver = append(ver, l.verifyMS)
		r.EngineMode, r.Workers = l.mode, l.workers
		f, ok := first[o.in.id]
		if !ok {
			first[o.in.id] = l
			r.Counters[o.in.id] = l.counters()
			continue
		}
		if f.counters() != l.counters() {
			msg := fmt.Sprintf("%s: %+v then %+v (engine %s, %d workers)", o.in.id, f.counters(), l.counters(), l.mode, l.workers)
			if l.workers > 1 {
				// The partitioned engine's owner merges worker results in
				// task order, but how much work each worker's private
				// manager takes on can vary with scheduling.
				msg += ": multi-worker scheduling"
			} else {
				r.fail("serial engine counter did not repeat: " + msg)
			}
			r.NonRepeating = append(r.NonRepeating, msg)
		}
	}
	r.set("parse.ms", median(parse))
	r.set("program.compile_ms", median(compile))
	r.set("program.engine_ms", median(engine))
	r.set("repair.step1_ms", median(step1))
	r.set("repair.step2_ms", median(step2))
	r.set("repair.other_ms", median(other))
	r.set("witness.ms", median(wit))
	r.set("verify.ms", median(ver))

	var images, rounds, vimages, outer, alloc, lookups, hits, unique, peak, gcs float64
	for _, l := range first {
		images += float64(l.fixImages)
		rounds += float64(l.fixRounds)
		vimages += float64(l.verifyImages)
		outer += float64(l.outer)
		alloc += float64(l.bdd.NodesAllocated)
		lookups += float64(l.bdd.CacheHits + l.bdd.CacheMisses)
		hits += float64(l.bdd.CacheHits)
		unique += float64(l.bdd.UniqueHits)
		peak += float64(l.bdd.PeakLive)
		gcs += float64(l.bdd.GCRuns)
	}
	n := float64(max(len(first), 1))
	r.set("program.fix_images", images/n)
	r.set("program.fix_rounds", rounds/n)
	r.set("verify.fix_images", vimages/n)
	r.set("repair.outer_iterations", outer/n)
	r.set("bdd.nodes_alloc", alloc/n)
	r.set("bdd.cache_lookups", lookups/n)
	ratio := 0.0
	if lookups > 0 {
		ratio = hits / lookups
	}
	r.set("bdd.cache_hit_ratio", ratio)
	r.set("bdd.unique_hits", unique/n)
	r.set("bdd.peak_live", peak/n)
	r.set("bdd.gc_runs", gcs/n)
}
