// Package verify independently checks the output of the repair algorithms:
// that the synthesized program is masking fault-tolerant to the original
// specification from the repaired invariant (Definition 15), that it adds no
// new behavior inside the invariant (the problem statement of Section II),
// and that its transitions are realizable by the program's processes under
// the read/write restrictions (Definitions 19 and 20).
//
// The checks are deliberately written against the definitions rather than
// reusing the algorithms' internal fixpoints, so they serve as an oracle in
// tests.
package verify

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bdd"
	"repro/internal/bmc"
	"repro/internal/program"
	"repro/internal/repair"
	"repro/internal/sat"
	"repro/internal/witness"
)

// Backend selects the symbolic engine behind the reachability checks.
type Backend string

// The verification backends.
const (
	// BackendBDD is the default: reachability as BDD fixpoints, witnesses by
	// frontier-stack extraction.
	BackendBDD Backend = "bdd"
	// BackendSAT routes the reachability checks (fault-span containment, bad
	// states, bad transitions) and the safety/deadlock witness search through
	// bounded model checking over the CDCL solver. The definitional and
	// fixpoint checks that are not reachability-shaped (closure, livelock,
	// realizability, liveness) still run on the BDD engine, so the two
	// backends answer the same questions and their verdicts must agree. A
	// passing SAT verdict is exact when the loop-free-path argument closed
	// the search and bounded (noted in the check detail) when MaxDepth was
	// hit first.
	BackendSAT Backend = "sat"
)

// ParseBackend validates a backend name; the empty string means BackendBDD.
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case "", BackendBDD:
		return BackendBDD, nil
	case BackendSAT:
		return BackendSAT, nil
	}
	return "", fmt.Errorf("verify: unknown backend %q (want %q or %q)", s, BackendBDD, BackendSAT)
}

// Check is one verified property. The JSON tags make reports embeddable in
// the machine-readable outputs (ftrepair -json, the ftrepaird daemon).
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
	// Warning marks informational checks that do not affect Report.OK:
	// properties the paper's definitions do not require but a model author
	// may care about (e.g. progress lost to new invariant deadlocks).
	Warning bool `json:"warning,omitempty"`
	// Witness, when non-nil, is a concrete replayable trace demonstrating
	// the failure (see ResultBackendEngine). It is attached only to failed
	// checks with a trace-shaped failure mode: reachable bad
	// states/transitions, deadlocks, livelocks, and unrealizable
	// transitions.
	Witness *witness.Trace `json:"witness,omitempty"`
}

// Report is the outcome of verifying a repair result.
type Report struct {
	Checks []Check
	// SAT carries the solver's work counters summed over every bounded
	// model-checking query of the run. Nil under the BDD backend.
	SAT *sat.Stats `json:"sat,omitempty"`
}

// OK reports whether every check passed.
func (r *Report) OK() bool {
	for _, c := range r.Checks {
		if !c.OK && !c.Warning {
			return false
		}
	}
	return true
}

// Failures returns the names of failed checks.
func (r *Report) Failures() []string {
	var out []string
	for _, c := range r.Checks {
		if !c.OK && !c.Warning {
			out = append(out, c.Name)
		}
	}
	return out
}

// String renders the report, one check per line.
func (r *Report) String() string {
	var sb strings.Builder
	for _, c := range r.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
			if c.Warning {
				mark = "warn"
			}
		}
		fmt.Fprintf(&sb, "%s %-38s %s\n", mark, c.Name, c.Detail)
	}
	return sb.String()
}

func (r *Report) add(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: detail})
}

// failed reports whether the named check exists and did not pass.
func (r *Report) failed(name string) bool {
	for _, c := range r.Checks {
		if c.Name == name {
			return !c.OK
		}
	}
	return false
}

// attach stores tr on the named check if that check failed. tr may be nil
// (extraction found no reachable witness), in which case nothing changes.
func (r *Report) attach(name string, tr *witness.Trace) {
	if tr == nil {
		return
	}
	for i := range r.Checks {
		if r.Checks[i].Name == name && !r.Checks[i].OK {
			tr.Check = name
			r.Checks[i].Witness = tr
			return
		}
	}
}

// Result verifies a repair result against the compiled program it was
// synthesized from.
func Result(c *program.Compiled, res *repair.Result) *Report {
	rep, _ := ResultBackendEngine(context.Background(), program.NewEngine(c), res, BackendBDD, false)
	return rep
}

// ResultBackendEngine is Result running the per-process predicates (the
// maximal realizable subsets every safety and realizability check builds on)
// and the reachability fixpoints on the given engine, with the reachability
// checks (and, with witnesses, the safety and deadlock trace search) routed
// through the chosen backend. Both backends emit the same check names with
// the same pass/fail meaning, which is what the differential gate compares.
//
// With withWitness, every failed check with a trace-shaped failure mode
// carries a concrete Trace that witness.Certify confirms. Extraction works
// from the same canonical fixpoint sets the checks computed, so the attached
// witnesses are byte-identical under any collection or reordering cadence.
// The error is non-nil only on context cancellation.
func ResultBackendEngine(ctx context.Context, e *program.Engine, res *repair.Result, backend Backend, withWitness bool) (*Report, error) {
	c := e.C
	m := c.Space.M
	s := c.Space
	rep := &Report{}
	sc := m.Protect()
	defer sc.Release()

	inv, span, trans := res.Invariant, res.FaultSpan, res.Trans
	sc.Keep(inv)
	sc.Keep(span)
	valid := s.ValidTrans()
	trans = sc.Keep(m.And(trans, valid))

	// --- problem-statement conditions (Section II) -----------------------
	rep.add("invariant nonempty", inv != bdd.False, "")
	rep.add("invariant subset of original", m.Implies(inv, c.Invariant), "S' ⊆ S")
	newBehavior := m.AndN(trans, inv, s.Prime(inv), m.Not(c.Trans))
	rep.add("no new behavior inside invariant", newBehavior == bdd.False, "δ'|S' ⊆ δ|S'")

	// --- closure ----------------------------------------------------------
	escInv := m.AndN(trans, inv, m.Not(s.Prime(inv)))
	rep.add("invariant closed in program", escInv == bdd.False, "")
	rep.add("invariant inside fault-span", m.Implies(inv, span), "S' ⊆ T'")
	combined := sc.Keep(m.Or(trans, c.Fault))
	escSpan := m.AndN(combined, span, m.Not(s.Prime(span)))
	rep.add("fault-span closed in program∪fault", escSpan == bdd.False, "")

	// --- safety under faults ----------------------------------------------
	// Partition the program's transitions by process for image computation;
	// every realizable δ' is covered by its per-process maximal realizable
	// subsets, and faults are partitioned per action. The per-process parts
	// feed every later check, so they stay rooted.
	procParts := make([]bdd.Node, len(c.Procs))
	for j, p := range c.Procs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		procParts[j] = sc.Keep(p.MaxRealizableSubset(trans))
	}
	// The three reachability-shaped checks are the backend seam: BDD computes
	// the exact reachable set once and intersects; SAT answers each question
	// as a bounded-model-checking query over the same partitioned relation.
	// Check names and pass/fail meaning are identical either way — that is
	// the contract the differential gate relies on.
	var (
		satQuery    func(target bdd.Node, asTrans bool) (*bmc.Result, error)
		satBadState *bmc.Result
		satBadTrans *bmc.Result
	)
	if backend == BackendSAT {
		steps, attrib := bmcParts(sc, c, procParts, trans)
		rep.SAT = &sat.Stats{}
		satQuery = func(target bdd.Node, asTrans bool) (*bmc.Result, error) {
			// One fresh checker per query (the single-query contract); the
			// shared stats field sums the solver work across all of them.
			ck := bmc.New(s, inv, steps, bmc.Options{Attribution: attrib})
			var r *bmc.Result
			var qerr error
			if asTrans {
				r, qerr = ck.ReachTrans(ctx, target)
			} else {
				r, qerr = ck.ReachState(ctx, target)
			}
			if qerr != nil {
				return nil, qerr
			}
			rep.SAT.Add(r.Stats)
			return r, nil
		}
		r, qerr := satQuery(sc.Keep(m.Diff(s.ValidCur(), span)), false)
		if qerr != nil {
			return nil, qerr
		}
		rep.add("reachable within fault-span", !r.Reachable, bmcDetail(r))
		if satBadState, qerr = satQuery(c.BadStates, false); qerr != nil {
			return nil, qerr
		}
		rep.add("no reachable bad state", !satBadState.Reachable, bmcDetail(satBadState))
		if satBadTrans, qerr = satQuery(sc.Keep(m.And(combined, c.BadTrans)), true); qerr != nil {
			return nil, qerr
		}
		rep.add("no reachable bad transition", !satBadTrans.Reachable, bmcDetail(satBadTrans))
	} else {
		reach, err := e.ReachableParts(ctx, inv, append(append([]bdd.Node{}, procParts...), c.FaultParts...))
		if err != nil {
			return nil, err
		}
		sc.Keep(reach)
		rep.add("reachable within fault-span", m.Implies(reach, span), "")
		badReach := m.And(reach, c.BadStates)
		rep.add("no reachable bad state", badReach == bdd.False, "")
		badStep := m.AndN(combined, reach, c.BadTrans)
		rep.add("no reachable bad transition", badStep == bdd.False, "")
	}

	// --- recovery (the liveness half of masking) ---------------------------
	outside := sc.Keep(m.Diff(span, inv))
	noOut := sc.Keep(m.Diff(outside, src(c, trans)))
	rep.add("no deadlock outside invariant", noOut == bdd.False,
		fmt.Sprintf("%g stuck state(s)", s.CountStates(noOut)))
	// Greatest fixpoint: states in T'−S' from which some program-only path
	// stays outside the invariant forever (program.CyclicCore — the one GFP
	// loop shared with the repair algorithms' cycle analysis).
	cyclic := sc.Keep(program.CyclicCore(c, procParts, outside))
	rep.add("no livelock outside invariant", cyclic == bdd.False,
		fmt.Sprintf("%g state(s) on non-recovering paths", s.CountStates(cyclic)))
	// New finite computations: invariant states deadlocked now but not
	// before. Definition 5 permits finite maximal computations and the
	// instances carry no liveness specification, so this is informational
	// (it reports progress the repair traded away).
	origDeadlock := c.Deadlocks(c.Trans)
	newDeadlock := m.AndN(inv, m.Diff(s.ValidCur(), src(c, trans)), m.Not(origDeadlock))
	rep.Checks = append(rep.Checks, Check{
		Name:    "no new deadlock inside invariant",
		OK:      newDeadlock == bdd.False,
		Detail:  fmt.Sprintf("%g state(s) rest where the original program moved", s.CountStates(newDeadlock)),
		Warning: true,
	})

	// --- liveness (Definition 8, if the spec declares leads-to properties) -
	// L ↝ T holds from S' iff every program computation that visits a
	// reachable L-state later visits a T-state. With finite maximal
	// computations this is the least fixpoint "must reach T": a state is
	// good iff it is in T, or it has a successor and all its successors are
	// good. (Checked fault-free, per Definition 10's "computations of P".)
	if len(c.Liveness) > 0 {
		progReach, err := e.ReachableParts(ctx, inv, procParts)
		if err != nil {
			return nil, err
		}
		sc.Keep(progReach)
		hasSucc := sc.Keep(src(c, trans))
		for _, lt := range c.Liveness {
			goodS := sc.Slot(m.And(lt.To, s.ValidCur()))
			for {
				escapes := src(c, m.And(trans, m.Not(s.Prime(goodS.Node()))))
				next := m.Or(goodS.Node(), m.And(hasSucc, m.Not(escapes)))
				if next == goodS.Node() {
					break
				}
				goodS.Set(next)
			}
			pending := m.AndN(progReach, lt.From, m.Not(goodS.Node()))
			name := lt.Name
			if name == "" {
				name = "leads-to"
			}
			rep.add("liveness "+name, pending == bdd.False,
				fmt.Sprintf("%g reachable L-state(s) that may never reach T", s.CountStates(pending)))
		}
	}

	// --- realizability (Definitions 19 and 20) -----------------------------
	unionS := sc.Slot(bdd.False)
	for j, p := range c.Procs {
		part := procParts[j]
		if !p.Realizable(part) {
			rep.add("process "+p.Name+" subset realizable", false, "")
		}
		unionS.Set(m.Or(unionS.Node(), part))
	}
	rep.add("transitions decompose into processes", m.Implies(trans, unionS.Node()),
		"every transition belongs to a complete group of some process")

	// --- witnesses ---------------------------------------------------------
	// Extraction reuses the canonical sets computed above (the stuck and
	// cyclic states), so the same model and result yield byte-identical
	// traces.
	if withWitness {
		x := witness.New(c)
		if rep.failed("no reachable bad state") || rep.failed("no reachable bad transition") {
			name := "no reachable bad state"
			if !rep.failed(name) {
				name = "no reachable bad transition"
			}
			if backend == BackendSAT {
				// The failing BMC query already decoded a shortest path; the
				// steps are in the exact shape Certify replays.
				res := satBadState
				if name == "no reachable bad transition" {
					res = satBadTrans
				}
				if res != nil && res.Reachable {
					rep.attach(name, &witness.Trace{
						Kind:   witness.KindSafety,
						Detail: fmt.Sprintf("bounded model check: safety violated after %d step(s)", len(res.Steps)-1),
						Steps:  res.Steps,
					})
				}
			} else {
				tr, werr := x.Safety(ctx, trans, inv)
				if werr != nil {
					return nil, werr
				}
				rep.attach(name, tr)
			}
		}
		if rep.failed("no deadlock outside invariant") {
			if backend == BackendSAT {
				r, qerr := satQuery(noOut, false)
				if qerr != nil {
					return nil, qerr
				}
				if r.Reachable {
					rep.attach("no deadlock outside invariant", &witness.Trace{
						Kind:   witness.KindDeadlock,
						Detail: fmt.Sprintf("bounded model check: deadlock outside the invariant after %d step(s)", len(r.Steps)-1),
						Steps:  r.Steps,
					})
				}
			} else {
				tr, werr := x.Deadlock(ctx, trans, inv, noOut)
				if werr != nil {
					return nil, werr
				}
				rep.attach("no deadlock outside invariant", tr)
			}
		}
		if rep.failed("no livelock outside invariant") {
			tr, werr := x.Livelock(ctx, trans, inv, cyclic)
			if werr != nil {
				return nil, werr
			}
			rep.attach("no livelock outside invariant", tr)
		}
		if rep.failed("transitions decompose into processes") {
			tr, werr := x.Unrealizable(ctx, trans)
			if werr != nil {
				return nil, werr
			}
			rep.attach("transitions decompose into processes", tr)
		}
	}

	return rep, nil
}

// bmcParts builds the labeled transition slices for the SAT backend's bounded
// model checker. The step union mirrors the BDD reach exactly: per-process
// maximal realizable subsets plus the per-action fault slices. The attribution
// list additionally carries the anonymous remainder of trans (transitions no
// single process realizes) so the final step of a ReachTrans query — drawn
// from the full system relation — still gets a label, matching the witness
// extractor's partition order (named processes, remainder, named faults).
func bmcParts(sc *bdd.Scope, c *program.Compiled, procParts []bdd.Node, trans bdd.Node) (steps, attrib []bmc.Part) {
	m := c.Space.M
	unionS := sc.Slot(bdd.False)
	for j, p := range c.Procs {
		steps = append(steps, bmc.Part{Name: p.Name, Kind: witness.StepProgram, Rel: procParts[j]})
		unionS.Set(m.Or(unionS.Node(), procParts[j]))
	}
	attrib = append(attrib, steps...)
	if rest := m.Diff(trans, unionS.Node()); rest != bdd.False {
		attrib = append(attrib, bmc.Part{Kind: witness.StepProgram, Rel: sc.Keep(rest)})
	}
	for i, f := range c.FaultParts {
		name := ""
		if i < len(c.Def.Faults) {
			name = c.Def.Faults[i].Name
		}
		fp := bmc.Part{Name: name, Kind: witness.StepFault, Rel: f}
		steps = append(steps, fp)
		attrib = append(attrib, fp)
	}
	return steps, attrib
}

// bmcDetail renders a BMC verdict for a check's detail column. A passing
// verdict that only holds up to the depth bound is labeled as such — the
// check still passes (the differential gate compares OK flags), but the
// report is honest about the weaker claim.
func bmcDetail(r *bmc.Result) string {
	switch {
	case r.Reachable:
		return fmt.Sprintf("violated at depth %d", r.Depth)
	case r.Complete:
		return fmt.Sprintf("unreachable (search complete at depth %d)", r.Depth)
	default:
		return fmt.Sprintf("no violation up to depth %d (bounded)", r.Depth)
	}
}

func src(c *program.Compiled, delta bdd.Node) bdd.Node {
	m := c.Space.M
	return m.AndExists(delta, c.Space.ValidTrans(), c.Space.NextCube())
}
