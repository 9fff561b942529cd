package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro"
	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/parse"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/verify"
	"repro/internal/witness"
)

// counts are the state counts every job is checked against expected.json.
type counts struct {
	Reachable float64 `json:"reachable"`
	Invariant float64 `json:"invariant"`
	FaultSpan float64 `json:"fault_span"`
}

// workCounters are the deterministic work counters of one job: nodes
// allocated and operation-cache lookups on the owning BDD manager, fixpoint
// images of the repair engine, and Algorithm 1's outer iterations.
type workCounters struct {
	NodesAlloc      int64 `json:"bdd.nodes_alloc"`
	CacheLookups    int64 `json:"bdd.cache_lookups"`
	FixImages       int64 `json:"program.fix_images"`
	OuterIterations int64 `json:"repair.outer_iterations"`
}

// outcome is what the benchmark keeps of one finished job to check it.
type outcome struct {
	in *input
	// ms is the job's CPU time from submission to verified result (in the
	// daemon's open loop: wall time from when it was due); wallMS is the
	// same interval on the wall clock.
	ms, wallMS float64
	err        string
	verified   bool
	failures   []string // failed verifier checks
	counts     counts
	// achieved is the job's AchievedCost under its cost model (0 uncosted);
	// blind is the cost-blind reference's, set once the job is checked.
	achieved, blind float64
	cacheHit        bool
	// layer, when the job ran through the traced pipeline, holds its
	// per-layer measurements.
	layer *layerStats
}

// layerStats are one traced job's per-layer numbers.
type layerStats struct {
	parseMS, compileMS, engineMS       float64
	step1MS, step2MS, otherMS          float64
	witnessMS, verifyMS                float64
	fixImages, fixRounds, verifyImages int64
	outer                              int64
	bdd                                bdd.Stats // owner-manager deltas over the job
	mode                               string
	workers                            int
}

func (l *layerStats) counters() workCounters {
	return workCounters{NodesAlloc: l.bdd.NodesAllocated, CacheLookups: l.bdd.CacheHits + l.bdd.CacheMisses,
		FixImages: l.fixImages, OuterIterations: l.outer}
}

// runPublic runs one closed-loop job through the library's public entry
// points with its defaults: repro.Repair, then repro.Verify. Only those two
// calls are timed; the outcome is read off afterwards.
func runPublic(ctx context.Context, in *input) outcome {
	var opts []repro.Option
	if in.cost != nil {
		opts = append(opts, repro.WithCostModel(*in.cost))
	}
	if in.witnesses > 0 {
		opts = append(opts, repro.WithWitnesses(in.witnesses))
	}
	c0, t0 := cpuMS(), time.Now()
	c, res, err := repro.Repair(ctx, in.def, opts...)
	var rep *repro.Report
	if err == nil {
		rep, err = repro.Verify(ctx, c, res)
	}
	out := outcome{in: in, ms: cpuMS() - c0, wallMS: durMS(time.Since(t0))}
	if err != nil {
		out.err = err.Error()
		return out
	}
	summarize(&out, c, res, rep)
	return out
}

// summarize fills a finished job's verdict and counts, and certifies its
// witnesses. It runs outside the timed window.
func summarize(out *outcome, c *repro.Compiled, res *repro.Result, rep *repro.Report) {
	out.verified = rep.OK()
	out.failures = rep.Failures()
	out.counts = counts{
		Reachable: res.Stats.ReachableStates,
		Invariant: repro.CountStates(c, res.Invariant),
		FaultSpan: repro.CountStates(c, res.FaultSpan),
	}
	out.achieved = res.AchievedCost
	if out.in.witnesses > 0 && len(res.Witnesses) == 0 {
		out.failures = append(out.failures, "no recovery witness extracted")
	}
	for i, w := range res.Witnesses {
		if err := repro.Certify(c, res.Trans, res.Invariant, w); err != nil {
			out.failures = append(out.failures, fmt.Sprintf("witness %d: %v", i, err))
		}
	}
}

// layerConfig selects which public pipeline runLayers mirrors.
type layerConfig struct {
	// workers is the engine width (0 selects GOMAXPROCS, the library
	// default; the daemon runs jobs on a serial engine).
	workers int
	// sharedVerify verifies on the repair's engine, as the daemon's job
	// runner does; otherwise the verifier builds its own engine, as
	// repro.Verify does.
	sharedVerify bool
}

// runLayers runs one job by calling each layer in turn, exactly as the
// public pipeline it mirrors does, and records a wall-clock span around
// every call:
// parse (inline models), program.compile, program.engine, repair with its
// phases as children, witness, and verify. Each span carries the owning BDD
// manager's counter deltas.
func runLayers(ctx context.Context, in *input, lc layerConfig, t *tracer, job int) (out outcome) {
	out = outcome{in: in, layer: &layerStats{}}
	ls := out.layer
	c0, start := cpuMS(), time.Now()
	root := t.open(job, 0, "job", start)
	defer func() {
		out.ms, out.wallMS = cpuMS()-c0, durMS(time.Since(start))
		t.close(root, time.Now(), map[string]float64{"workers": float64(ls.workers)})
	}()
	fail := func(err error) outcome {
		out.err = err.Error()
		return out
	}

	def := in.def
	var err error
	switch {
	case in.spec.Model != "":
		s := time.Now()
		def, err = parse.Program(in.spec.Model)
		t.add(job, root, "parse", s, time.Now(), nil)
		ls.parseMS = durMS(time.Since(s))
	case in.spec.Case != "":
		def, err = core.CaseStudy(in.spec.Case, in.spec.N)
	}
	if err != nil {
		return fail(err)
	}

	s := time.Now()
	c, err := def.Compile()
	if err != nil {
		return fail(err)
	}
	m := c.Space.M
	ls.compileMS = durMS(time.Since(s))
	t.add(job, root, "program.compile", s, time.Now(), bddAttrs(bdd.Stats{}, m.Stats()))

	opts := repair.DefaultOptions()
	opts.Workers = lc.workers
	opts.NodeBudget = in.spec.NodeBudget
	if in.cost != nil {
		opts.Costs = in.cost
		opts.MinimizeCost = true
	}
	s = time.Now()
	b0 := m.Stats()
	eng, err := program.NewEngineMode(c, program.Mode(opts.Mode), opts.Workers)
	if err != nil {
		return fail(err)
	}
	opts.ApplyEngine(eng)
	ls.engineMS = durMS(time.Since(s))
	ls.mode, ls.workers = string(eng.Mode()), eng.Workers()
	t.add(job, root, "program.engine", s, time.Now(), bddAttrs(b0, m.Stats()))

	// Repair, split into phase spans at the Phasef callbacks: the segment
	// before the first callback is the initial reachability (and weight
	// ADD), then step1/step2 per outer iteration, then thinning.
	s = time.Now()
	b0, f0 := m.Stats(), eng.FixpointStats()
	rid := t.open(job, root, "repair", s)
	phase, phaseStart := "repair.init", s
	opts.Phasef = func(p string) {
		now := time.Now()
		t.add(job, rid, phase, phaseStart, now, nil)
		phase, phaseStart = "repair."+p, now
	}
	res, err := repair.LazyEngine(ctx, eng, opts)
	end := time.Now()
	t.add(job, rid, phase, phaseStart, end, nil)
	if err != nil {
		return fail(err)
	}
	f1 := eng.FixpointStats()
	ls.fixImages, ls.fixRounds = f1.Images-f0.Images, f1.Rounds-f0.Rounds
	ls.outer = int64(res.Stats.OuterIterations)
	ls.step1MS, ls.step2MS = durMS(res.Stats.Step1), durMS(res.Stats.Step2)
	ls.otherMS = durMS(res.Stats.Total - res.Stats.Step1 - res.Stats.Step2)
	attrs := bddAttrs(b0, m.Stats())
	attrs["fix_images"], attrs["fix_rounds"] = float64(ls.fixImages), float64(ls.fixRounds)
	attrs["outer_iterations"] = float64(ls.outer)
	t.close(rid, end, attrs)

	if in.witnesses > 0 {
		s = time.Now()
		b0 = m.Stats()
		demos, err := witness.RecoveryDemos(ctx, c, res.Trans, res.Invariant, res.FaultSpan, in.witnesses)
		if err != nil {
			return fail(err)
		}
		res.Witnesses = demos
		ls.witnessMS = durMS(time.Since(s))
		t.add(job, root, "witness", s, time.Now(), bddAttrs(b0, m.Stats()))
	}

	s = time.Now()
	b0 = m.Stats()
	veng := eng
	if !lc.sharedVerify {
		if veng, err = program.NewEngineMode(c, program.Mode(opts.Mode), opts.Workers); err != nil {
			return fail(err)
		}
		opts.ApplyEngine(veng)
	}
	vf0 := veng.FixpointStats()
	rep, err := verify.ResultBackendEngine(ctx, veng, res, verify.BackendBDD, false)
	if err != nil {
		return fail(err)
	}
	ls.verifyMS = durMS(time.Since(s))
	ls.verifyImages = veng.FixpointStats().Images - vf0.Images
	attrs = bddAttrs(b0, m.Stats())
	attrs["fix_images"] = float64(ls.verifyImages)
	t.add(job, root, "verify", s, time.Now(), attrs)

	ls.bdd = m.Stats()
	summarize(&out, c, res, rep)
	return out
}

// bddAttrs are the owning manager's counter deltas between two snapshots.
func bddAttrs(a, b bdd.Stats) map[string]float64 {
	return map[string]float64{
		"nodes_alloc":   float64(b.NodesAllocated - a.NodesAllocated),
		"cache_lookups": float64(b.CacheHits + b.CacheMisses - a.CacheHits - a.CacheMisses),
		"cache_hits":    float64(b.CacheHits - a.CacheHits),
		"unique_hits":   float64(b.UniqueHits - a.UniqueHits),
		"gc_runs":       float64(b.GCRuns - a.GCRuns),
		"peak_live":     float64(b.PeakLive),
	}
}

// costBlind runs the cost-blind reference of a costed job: the same model
// priced by the same weights, but without cost-aware synthesis.
func costBlind(ctx context.Context, in *input) (verified bool, failures []string, achieved float64, err error) {
	opts := repro.DefaultOptions()
	opts.Costs = in.cost
	c, res, err := repro.Repair(ctx, in.def, repro.WithOptions(opts))
	if err != nil {
		return false, nil, 0, err
	}
	rep, err := repro.Verify(ctx, c, res)
	if err != nil {
		return false, nil, 0, err
	}
	return rep.OK(), rep.Failures(), res.AchievedCost, nil
}

// sameVerdict reports whether two jobs reached the same verdict with the
// same failed checks.
func sameVerdict(aOK bool, aFail []string, bOK bool, bFail []string) bool {
	return aOK == bOK && slices.Equal(aFail, bFail)
}
