package core

import (
	"repro/internal/sat"
	"repro/internal/verify"
	"repro/internal/witness"
)

// RunReport is the machine-readable summary of one repair run: the paper's
// table columns (reachable states, Step 1 / Step 2 / total times, BDD nodes)
// plus the verification verdict. It is the single JSON encoding shared by
// `ftrepair -json` and its text printer, the ftrepaird daemon's job results
// and metrics, the golden-result test, and the committed BENCH_*.json
// records, so downstream tooling parses one shape everywhere.
//
// Its fields split in two. The embedded Telemetry says how the run was
// computed (times, node and scheduler counters, solver effort) and is dropped
// whole by Normalized. Every other field is the result's identity: a
// function of the problem and the synthesized program alone.
type RunReport struct {
	// Model is the program's declared name; Case/N identify a built-in
	// case-study instance when the run came from one.
	Model string `json:"model"`
	Case  string `json:"case,omitempty"`
	N     int    `json:"n,omitempty"`

	Algorithm   string `json:"algorithm"`
	Pure        bool   `json:"pure,omitempty"`         // reachability heuristic disabled
	DeferCycles bool   `json:"defer_cycles,omitempty"` // cycle-breaking after Step 2
	// Backend is the verification backend ("bdd" or "sat"); empty when
	// verification was not requested. The verdict is backend-independent,
	// but which engine produced it is part of the report's identity.
	Backend string `json:"backend,omitempty"`

	StateBits       int     `json:"state_bits"`
	States          float64 `json:"states"`
	ReachableStates float64 `json:"reachable_states"`
	InvariantStates float64 `json:"invariant_states"`
	FaultSpanStates float64 `json:"fault_span_states"`
	OuterIterations int     `json:"outer_iterations"`

	// Telemetry carries no JSON tag, so its keys sit inline here, in the
	// report's wire order.
	Telemetry

	// Verified is nil when verification was not requested; otherwise the
	// verifier's verdict, with the individual checks in Checks.
	Verified *bool          `json:"verified,omitempty"`
	Checks   []verify.Check `json:"checks,omitempty"`

	// Witnesses holds the recovery demonstrations extracted when the job
	// asked for them (Job.Witnesses > 0). Deterministic: a function of the
	// synthesized program alone, so Normalized keeps them.
	Witnesses []*witness.Trace `json:"witnesses,omitempty"`

	// Cost-aware repair outputs (see internal/repair's cost.go). Costed is
	// true when the job carried a cost model; MinCost is true when the
	// synthesis additionally minimized. AchievedCost is the exact weighted
	// count of the kept transitions leaving the repaired invariant,
	// CostRemoved the weighted count of original transitions the repair
	// deleted. Kept by Normalized: both are functions of the synthesized
	// program and the weight layer, identical under any collection or
	// reordering cadence.
	Costed       bool    `json:"costed,omitempty"`
	MinCost      bool    `json:"min_cost,omitempty"`
	AchievedCost float64 `json:"achieved_cost,omitempty"`
	CostRemoved  float64 `json:"cost_removed,omitempty"`
}

// Telemetry is everything a run reports about how it was computed rather
// than what it computed: the BDD node counters, which move with collection
// and reordering cadence; the fixpoint scheduler's work; the wall-clock phase
// times; and the SAT solver's effort. RunReport embeds it and Normalized
// drops it whole, so a counter added here can never leak into the golden
// identity; a field added to RunReport outside it must be declared identity
// in TestNormalizedDropsTelemetry.
type Telemetry struct {
	// BDDNodes is the size of the synthesized program's BDDs.
	BDDNodes int `json:"bdd_nodes"`

	// Node-lifetime counters (see internal/bdd's collector): live nodes at
	// job completion, the high-water mark across the run, and the run's
	// collection and reordering activity.
	BDDNodesLive   int64 `json:"bdd_nodes_live,omitempty"`
	BDDPeakNodes   int64 `json:"bdd_peak_nodes,omitempty"`
	BDDGCRuns      int64 `json:"bdd_gc_runs,omitempty"`
	BDDNodesFreed  int64 `json:"bdd_nodes_freed,omitempty"`
	BDDReorderRuns int64 `json:"bdd_reorder_runs,omitempty"`

	// Fixpoint-scheduler work counters (internal/program's frontier-chained
	// scheduler): rounds and frontier images across every reachability
	// fixpoint of the run, the verifier's included.
	FixRounds int64 `json:"fix_rounds,omitempty"`
	FixImages int64 `json:"fix_images,omitempty"`

	CompileNS int64 `json:"compile_ns"`
	Step1NS   int64 `json:"step1_ns"`
	Step2NS   int64 `json:"step2_ns"`
	TotalNS   int64 `json:"total_ns"`
	VerifyNS  int64 `json:"verify_ns,omitempty"`
	WitnessNS int64 `json:"witness_ns,omitempty"`

	// SAT holds the CDCL solver's work counters (conflicts, decisions,
	// propagations, learned clauses, restarts, max decision level) summed
	// over the verifier's bounded model-checking queries. Nil unless the run
	// verified under the SAT backend.
	SAT *sat.Stats `json:"sat,omitempty"`
}

// NewRunReport summarizes a finished job. caseName and n may be zero values
// for models that did not come from a built-in case study.
func NewRunReport(job Job, out *Outcome, caseName string, n int) RunReport {
	s := out.Compiled.Space
	res := out.Result
	alg := job.Algorithm
	if alg == "" {
		alg = LazyRepair
	}
	r := RunReport{
		Model:       job.Def.Name,
		Case:        caseName,
		N:           n,
		Algorithm:   string(alg),
		Pure:        !job.Options.ReachabilityHeuristic,
		DeferCycles: job.Options.DeferCycleBreaking,

		StateBits:       s.TotalBits(),
		States:          s.CountStates(s.ValidCur()),
		ReachableStates: res.Stats.ReachableStates,
		InvariantStates: s.CountStates(res.Invariant),
		FaultSpanStates: s.CountStates(res.FaultSpan),
		OuterIterations: res.Stats.OuterIterations,

		Telemetry: out.Telemetry,

		Witnesses: res.Witnesses,

		Costed:       res.Costed,
		MinCost:      res.Costed && job.Options.MinimizeCost,
		AchievedCost: res.AchievedCost,
		CostRemoved:  res.CostRemoved,
	}
	if out.Report != nil {
		ok := out.Report.OK()
		r.Verified = &ok
		r.Checks = out.Report.Checks
		backend, err := verify.ParseBackend(string(job.Backend))
		if err != nil {
			backend = job.Backend // unvalidated jobs render verbatim
		}
		r.Backend = string(backend)
	}
	return r
}

// Normalized drops the Telemetry — what legitimately varies between runs of
// the same synthesis problem. Everything left is a function of the
// synthesized program alone (witnesses and cost fields included: extraction
// is deterministic and the costs are exact weighted counts), so two reports
// from the same problem must be identical after normalization — the
// contract the golden-result test pins.
func (r RunReport) Normalized() RunReport {
	r.Telemetry = Telemetry{}
	return r
}
