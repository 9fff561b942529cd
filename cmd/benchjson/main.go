// Command benchjson runs the case-study ladder and writes a machine-readable
// performance snapshot: a JSON array of core.RunReport records (the same
// encoding served by `ftrepair -json` and the ftrepaird daemon), one per
// instance, capturing reachable states, BDD nodes, and Step 1 / Step 2 /
// total repair times.
//
// Usage:
//
//	benchjson -out perf.json           # full ladder
//	benchjson -quick -out perf.json    # small instances only
//	benchjson -gc -out perf.json       # GC on/off comparison (BENCH_4.json)
//	benchjson -reorder -out perf.json  # reordering on/off comparison (BENCH_5.json)
//	benchjson -backend -out perf.json  # BDD vs SAT verification (BENCH_6.json)
//	benchjson -cost -out perf.json     # cost-blind vs cost-aware synthesis (BENCH_9.json)
//
// -out is required, so a run never overwrites a committed snapshot by
// default; the parenthesized names are the committed snapshots of each mode.
//
// The -gc mode runs the two largest stabilizing-chain instances twice each —
// once with automatic collection disabled and once with an aggressive
// collection cadence — and writes records tagged with the GC arm, so the
// peak-live-node reduction of mark-and-sweep GC is directly visible in the
// bdd_peak_nodes fields.
//
// The -reorder mode runs the chain and Byzantine-agreement instances twice
// each — reordering off and on, same GC cadence — and writes records tagged
// with the reordering arm, so the node-table reduction of dynamic sifting is
// directly visible in the bdd_peak_nodes / bdd_nodes_live fields.
//
// The -backend mode verifies each ladder instance's repaired program under
// both verification backends (BDD fixpoints vs SAT bounded model checking)
// and then runs the swap-permutation deep-counterexample model — a program
// whose shortest safety violation is n(n-1)/2 adjacent transpositions away —
// under both, so the records show where exact fixpoints win (closing a
// passing verdict) and what a deep violation costs each engine.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/sat"
	"repro/internal/symbolic"
	"repro/internal/verify"
)

type instance struct {
	name string
	n    int
}

func ladder(quick bool) []instance {
	if quick {
		return []instance{
			{"ba", 3}, {"bafs", 2}, {"sc", 8}, {"ring", 2}, {"tmr", 0},
		}
	}
	return []instance{
		{"ba", 3}, {"ba", 6},
		{"bafs", 2}, {"bafs", 3},
		{"sc", 8}, {"sc", 12},
		{"ring", 2}, {"ring", 3},
		{"tmr", 0},
	}
}

// gcReport is one record of the -gc comparison: a RunReport tagged with the
// collection arm it ran under.
type gcReport struct {
	GC string `json:"gc"` // "off" or "on"
	core.RunReport
}

// aggressiveGCThreshold collects every 2^16 allocations — frequent enough to
// fire many times on the chain instances (the manager default of 2^21 may
// never trigger there, which would make the comparison vacuous).
const aggressiveGCThreshold = 1 << 16

func runOne(ctx context.Context, inst instance, witnesses int, gcThreshold, reorder int64) (core.RunReport, error) {
	def, err := core.CaseStudy(inst.name, inst.n)
	if err != nil {
		return core.RunReport{}, err
	}
	opts := repair.DefaultOptions()
	opts.GCThreshold = gcThreshold
	opts.Reorder = reorder
	job := core.Job{
		Def:       def,
		Algorithm: core.LazyRepair,
		Options:   opts,
		Verify:    true,
		Witnesses: witnesses,
	}
	outc, err := core.Run(ctx, job)
	if err != nil {
		return core.RunReport{}, fmt.Errorf("%s n=%d: %w", inst.name, inst.n, err)
	}
	return core.NewRunReport(job, outc, inst.name, inst.n), nil
}

func gcComparison(ctx context.Context, out string, witnesses int) {
	instances := []instance{{"sc", 8}, {"sc", 12}}
	arms := []struct {
		label     string
		threshold int64
	}{
		{"off", -1}, // disable automatic collection
		{"on", aggressiveGCThreshold},
	}
	var reports []gcReport
	for _, inst := range instances {
		for _, arm := range arms {
			r, err := runOne(ctx, inst, witnesses, arm.threshold, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			reports = append(reports, gcReport{GC: arm.label, RunReport: r})
			fmt.Fprintf(os.Stderr, "benchjson: %-4s n=%-2d gc=%-3s peak=%d live=%d gcruns=%d freed=%d total=%s\n",
				inst.name, inst.n, arm.label, r.BDDPeakNodes, r.BDDNodesLive,
				r.BDDGCRuns, r.BDDNodesFreed, time.Duration(r.TotalNS))
		}
	}
	writeJSON(out, reports, len(reports))
}

// reorderReport is one record of the -reorder comparison: a RunReport tagged
// with the reordering arm it ran under.
type reorderReport struct {
	Reorder string `json:"reorder"` // "off" or "on"
	core.RunReport
}

// reorderSiftThreshold arms a sifting pass every 2^16 allocations (the
// growth gate keeps actual passes much rarer): on the chain instances this
// fires early enough to shrink the Step 1 fixpoint's working set, which is
// where the peak lives.
const reorderSiftThreshold = 1 << 16

// reorderComparison runs the chain and Byzantine-agreement instances with
// reordering off and on. Both arms keep the manager's default GC cadence:
// an aggressive cadence would itself flatten the peaks reordering targets,
// masking the comparison — at the default, the peak-live fields reflect the
// fixpoints' actual working sets under each variable order.
func reorderComparison(ctx context.Context, out string, quick bool, witnesses int) {
	instances := []instance{{"sc", 8}, {"sc", 12}, {"ba", 6}}
	if quick {
		instances = []instance{{"sc", 8}, {"ba", 3}}
	}
	arms := []struct {
		label   string
		reorder int64
	}{
		{"off", 0},
		{"on", reorderSiftThreshold},
	}
	var reports []reorderReport
	for _, inst := range instances {
		for _, arm := range arms {
			r, err := runOne(ctx, inst, witnesses, 0, arm.reorder)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			reports = append(reports, reorderReport{Reorder: arm.label, RunReport: r})
			fmt.Fprintf(os.Stderr, "benchjson: %-4s n=%-2d reorder=%-3s peak=%d live=%d passes=%d total=%s\n",
				inst.name, inst.n, arm.label, r.BDDPeakNodes, r.BDDNodesLive,
				r.BDDReorderRuns, time.Duration(r.TotalNS))
		}
	}
	writeJSON(out, reports, len(reports))
}

// costReport is one record of the -cost comparison: a RunReport tagged with
// the arm it ran under ("baseline" prices transitions but synthesizes
// cost-blind; "mincost" turns on cost-aware synthesis).
type costReport struct {
	Arm string `json:"arm"` // "baseline" or "mincost"
	core.RunReport
}

// costComparison runs each ladder instance twice under a unit cost model —
// once cost-blind, once with cost-aware synthesis — and writes BENCH_9.json.
// It enforces the refinement's contract: identical verdicts on every
// instance, achieved_cost never higher under mincost, and strictly lower on
// at least one instance (otherwise the pass did nothing and the run fails).
func costComparison(ctx context.Context, out string, quick bool) {
	var reports []costReport
	improved := false
	for _, inst := range ladder(quick) {
		def, err := core.CaseStudy(inst.name, inst.n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var arms [2]core.RunReport
		for i, arm := range []string{"baseline", "mincost"} {
			opts := repair.DefaultOptions()
			opts.Costs = &repair.CostModel{Default: 1}
			opts.MinimizeCost = arm == "mincost"
			job := core.Job{Def: def, Algorithm: core.LazyRepair, Options: opts, Verify: true}
			outc, err := core.Run(ctx, job)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %s n=%d %s: %v\n", inst.name, inst.n, arm, err)
				os.Exit(1)
			}
			arms[i] = core.NewRunReport(job, outc, inst.name, inst.n)
			reports = append(reports, costReport{Arm: arm, RunReport: arms[i]})
			fmt.Fprintf(os.Stderr, "benchjson: %-4s n=%-2d arm=%-8s cost=%-8g removed=%-8g total=%s verified=%t\n",
				inst.name, inst.n, arm, arms[i].AchievedCost, arms[i].CostRemoved,
				time.Duration(arms[i].TotalNS), arms[i].Verified != nil && *arms[i].Verified)
		}
		base, min := arms[0], arms[1]
		if base.Verified == nil || min.Verified == nil || *base.Verified != *min.Verified {
			fmt.Fprintf(os.Stderr, "benchjson: %s n=%d: verdicts differ between arms\n", inst.name, inst.n)
			os.Exit(1)
		}
		if min.AchievedCost > base.AchievedCost {
			fmt.Fprintf(os.Stderr, "benchjson: %s n=%d: mincost achieved %g > baseline %g\n",
				inst.name, inst.n, min.AchievedCost, base.AchievedCost)
			os.Exit(1)
		}
		if min.AchievedCost < base.AchievedCost {
			improved = true
		}
	}
	if !improved {
		fmt.Fprintln(os.Stderr, "benchjson: cost-aware synthesis improved no instance")
		os.Exit(1)
	}
	writeJSON(out, reports, len(reports))
}

// backendRecord is one record of the -backend comparison: one verification
// pass of one model under one backend.
type backendRecord struct {
	Backend string `json:"backend"` // "bdd" or "sat"
	Case    string `json:"case"`
	N       int    `json:"n,omitempty"`
	// Repaired marks passes over the repaired program (the verdict is a
	// pass); false means the unrepaired deep-counterexample model.
	Repaired bool  `json:"repaired"`
	Verified bool  `json:"verified"`
	VerifyNS int64 `json:"verify_ns"`
	// CounterexampleDepth is the length (steps) of the safety trace when the
	// verdict failed; both backends must find the same shortest depth.
	CounterexampleDepth int        `json:"counterexample_depth,omitempty"`
	SAT                 *sat.Stats `json:"sat,omitempty"`
}

// swapDef builds the deep-counterexample model: n variables over domain n,
// starting as the identity permutation, with one process that may swap any
// adjacent pair (simultaneous copy of each into the other). The bad set is
// the reversed permutation, whose shortest derivation is n(n-1)/2 adjacent
// transpositions — every inversion must be introduced by its own swap — so
// the counterexample depth grows quadratically while the state space stays
// tiny. BDD reachability closes in n(n-1)/2 frontier layers; the SAT backend
// must unroll that many frames before the target becomes satisfiable.
func swapDef(n int) *program.Def {
	d := &program.Def{Name: fmt.Sprintf("swap-%d", n)}
	v := func(i int) string { return fmt.Sprintf("v%d", i) }
	var names []string
	var identity, reversed []expr.Expr
	for i := 0; i < n; i++ {
		d.Vars = append(d.Vars, symbolic.VarSpec{Name: v(i), Domain: n})
		names = append(names, v(i))
		identity = append(identity, expr.Eq(v(i), i))
		reversed = append(reversed, expr.Eq(v(i), n-1-i))
	}
	proc := &program.Process{Name: "swapper", Read: names, Write: names}
	for i := 0; i+1 < n; i++ {
		proc.Actions = append(proc.Actions, program.Action{
			Name:    fmt.Sprintf("swap-%d", i),
			Guard:   expr.True,
			Updates: []program.Update{program.Copy(v(i), v(i+1)), program.Copy(v(i+1), v(i))},
		})
	}
	d.Processes = []*program.Process{proc}
	d.Invariant = expr.And(identity...)
	d.BadStates = expr.And(reversed...)
	return d
}

// verifyUnder times one verification pass of res under the given backend.
func verifyUnder(ctx context.Context, c *program.Compiled, res *repair.Result, backend verify.Backend) (*verify.Report, time.Duration, error) {
	t0 := time.Now()
	rep, err := verify.ResultBackendEngine(ctx, program.NewEngine(c), res, backend, true)
	return rep, time.Since(t0), err
}

// traceDepth returns the step count of the first failed check's witness, or
// zero when every check passed.
func traceDepth(rep *verify.Report) int {
	for _, ck := range rep.Checks {
		if ck.Witness != nil && len(ck.Witness.Steps) > 0 {
			return len(ck.Witness.Steps) - 1
		}
	}
	return 0
}

func backendComparison(ctx context.Context, out string, quick bool) {
	backends := []verify.Backend{verify.BackendBDD, verify.BackendSAT}
	var records []backendRecord

	// Repaired ladder — always the small instances: a passing SAT verdict
	// needs the loop-free-path completeness proof, whose CNF grows
	// quadratically with the depth bound, so the large instances belong to
	// the BDD engine (that asymmetry is exactly what the records document).
	for _, inst := range ladder(true) {
		def, err := core.CaseStudy(inst.name, inst.n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		c, err := def.Compile()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		res, err := repair.Lazy(ctx, c, repair.DefaultOptions())
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s n=%d: %v\n", inst.name, inst.n, err)
			os.Exit(1)
		}
		for _, backend := range backends {
			rep, d, err := verifyUnder(ctx, c, res, backend)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %s n=%d %s: %v\n", inst.name, inst.n, backend, err)
				os.Exit(1)
			}
			records = append(records, backendRecord{
				Backend: string(backend), Case: inst.name, N: inst.n,
				Repaired: true, Verified: rep.OK(), VerifyNS: d.Nanoseconds(), SAT: rep.SAT,
			})
			fmt.Fprintf(os.Stderr, "benchjson: %-7s n=%-2d backend=%-3s repaired verified=%-5t verify=%s\n",
				inst.name, inst.n, backend, rep.OK(), d)
		}
	}

	// Deep counterexample: the unrepaired swap model under its identity
	// invariant, bad set at quadratic distance.
	n := 6
	if quick {
		n = 5
	}
	def := swapDef(n)
	c, err := def.Compile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	res := &repair.Result{Trans: c.Trans, Invariant: c.Invariant, FaultSpan: c.Space.ValidCur()}
	want := n * (n - 1) / 2
	for _, backend := range backends {
		rep, d, err := verifyUnder(ctx, c, res, backend)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s %s: %v\n", def.Name, backend, err)
			os.Exit(1)
		}
		depth := traceDepth(rep)
		if depth != want {
			fmt.Fprintf(os.Stderr, "benchjson: %s %s: counterexample depth %d, want %d\n", def.Name, backend, depth, want)
			os.Exit(1)
		}
		records = append(records, backendRecord{
			Backend: string(backend), Case: def.Name,
			Verified: rep.OK(), VerifyNS: d.Nanoseconds(), CounterexampleDepth: depth, SAT: rep.SAT,
		})
		fmt.Fprintf(os.Stderr, "benchjson: %-7s      backend=%-3s depth=%d verify=%s\n", def.Name, backend, depth, d)
	}
	writeJSON(out, records, len(records))
}

func writeJSON(out string, v any, n int) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d reports to %s\n", n, out)
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run parses the flags and runs the selected mode, returning the exit code:
// 2 for a usage error (nothing is run or written), 0 otherwise — the modes
// exit the process themselves when a run fails.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("out", "", "output path (required)")
		quick     = fs.Bool("quick", false, "run only the small instances")
		timeout   = fs.Duration("timeout", 10*time.Minute, "deadline for the whole ladder")
		witnesses = fs.Int("witnesses", 0, "recovery demonstrations per job (adds witness extraction to the measured phases)")
		gc        = fs.Bool("gc", false, "run the GC on/off comparison on the chain instances instead of the ladder")
		reorder   = fs.Bool("reorder", false, "run the variable-reordering on/off comparison instead of the ladder")
		backend   = fs.Bool("backend", false, "run the BDD vs SAT verification-backend comparison instead of the ladder")
		cost      = fs.Bool("cost", false, "run the cost-blind vs cost-aware synthesis comparison instead of the ladder")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "benchjson: -out is required (the committed BENCH_*.json snapshots are never a default target)")
		fs.Usage()
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch {
	case *gc:
		gcComparison(ctx, *out, *witnesses)
	case *reorder:
		reorderComparison(ctx, *out, *quick, *witnesses)
	case *backend:
		backendComparison(ctx, *out, *quick)
	case *cost:
		costComparison(ctx, *out, *quick)
	default:
		ladderRun(ctx, *out, *quick, *witnesses)
	}
	return 0
}

// ladderRun repairs and verifies every ladder instance and writes one
// RunReport per instance.
func ladderRun(ctx context.Context, out string, quick bool, witnesses int) {
	var reports []core.RunReport
	for _, inst := range ladder(quick) {
		r, err := runOne(ctx, inst, witnesses, 0, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		reports = append(reports, r)
		fmt.Fprintf(os.Stderr, "benchjson: %-4s n=%-2d reach=%g nodes=%d total=%s witness=%s verified=%t\n",
			inst.name, inst.n, r.ReachableStates, r.BDDNodes,
			time.Duration(r.TotalNS), time.Duration(r.WitnessNS),
			r.Verified != nil && *r.Verified)
	}
	writeJSON(out, reports, len(reports))
}
