package repair

import (
	"context"
	"time"

	"repro/internal/bdd"
	"repro/internal/program"
)

// Cautious implements the baseline repair approach of the prior tool
// (Section IV): at every intermediate step the model is kept realizable, so
// every transition removal removes the transition's whole read-restriction
// group, and every recovery addition adds a whole group — after checking
// that no member of the group is harmful. The per-step group computations
// inside the main fixpoint are what make this approach expensive; lazy
// repair defers them to a single pass at the end.
//
// Two of the prior tool's heuristics are reproduced:
//
//   - A group containing a safety-violating member is still acceptable if
//     that member's source state is unreachable in the fault-intolerant
//     program in the presence of faults (the Section-IV heuristic). A final
//     soundness pass re-checks the bet against the repaired program's true
//     reachable set and revokes it where it failed.
//   - Recovery groups are added layer by layer, and a group is accepted only
//     if every member strictly decreases the distance to the invariant —
//     keeping the span cycle-free without a separate cycle-resolution phase.
func Cautious(ctx context.Context, c *program.Compiled, opts Options) (*Result, error) {
	eng, err := program.NewEngineMode(c, program.Mode(opts.Mode), opts.Workers)
	if err != nil {
		return nil, err
	}
	return CautiousEngine(ctx, eng, opts)
}

// CautiousEngine is Cautious running on a caller-supplied engine. core.Run —
// the one pipeline behind repro.Repair, the commands and the daemon — calls
// it so the engine and its counters are shared with the verifier.
func CautiousEngine(ctx context.Context, eng *program.Engine, opts Options) (*Result, error) {
	opts.ApplyEngine(eng)
	c := eng.C
	m := c.Space.M
	s := c.Space
	start := time.Now()
	var stats Stats

	// Cautious repair is one monolithic fixpoint (group closure runs inside
	// the main loop), so the whole synthesis reports as step 1.
	opts.phase("step1")

	sc := m.Protect()
	defer sc.Release()
	ms, mt, err := ComputeMsMtEngine(ctx, eng, c.BadTrans)
	if err != nil {
		return nil, engineErr(ctx, err)
	}
	sc.Keep(ms)
	sc.Keep(mt)

	reach, err := eng.ReachableParts(ctx, c.Invariant, c.PartsWithFaults(bdd.True))
	if err != nil {
		return nil, engineErr(ctx, err)
	}
	stats.ReachableStates = s.CountStates(reach)
	// The Section-IV heuristic: prohibited transitions whose source the
	// fault-intolerant program cannot reach are tolerated (for now).
	mtHard := sc.Keep(m.And(mt, reach))

	// Cautious repair works over the full state space.
	span := sc.Slot(m.Diff(s.ValidCur(), ms))
	invariant := sc.Slot(m.Diff(c.Invariant, ms))
	banned := sc.Slot(bdd.False)

	deltas := make([]bdd.Node, len(c.Procs))
	deltaSlots := make([]*bdd.Rooted, len(c.Procs))
	for i := range deltaSlots {
		deltaSlots[i] = sc.Slot(bdd.False)
	}
	unionS := sc.Slot(bdd.False)

	maxOuter := opts.MaxOuterIterations * 16
	if maxOuter <= 0 {
		maxOuter = 1024
	}
	for outer := 1; outer <= maxOuter; outer++ {
		stats.OuterIterations = outer
		if err := cancelled(ctx); err != nil {
			return nil, err
		}

		// Phase 1: start from the original per-process transitions and
		// remove harmful groups until stable, re-establishing invariant
		// closure and deadlock-freedom after each removal round.
		for j, p := range c.Procs {
			deltas[j] = deltaSlots[j].Set(p.Trans)
		}
		for {
			// The harmful set is invariant across one removal round, and
			// each process's removal touches only its own delta. The
			// round's scope roots harmful and every new delta across the
			// group closures of the later processes.
			rsc := m.Protect()
			harmful := rsc.Keep(m.OrN(
				mtHard,
				banned.Node(),
				m.AndN(span.Node(), m.Not(s.Prime(span.Node()))),           // escapes the span
				m.AndN(invariant.Node(), m.Not(s.Prime(invariant.Node()))), // breaks invariant closure
			))
			next := make([]bdd.Node, len(c.Procs))
			for j, p := range c.Procs {
				if err := cancelled(ctx); err != nil {
					rsc.Release()
					return nil, err
				}
				next[j] = deltas[j]
				if bad := m.And(deltas[j], harmful); bad != bdd.False {
					next[j] = m.Diff(deltas[j], p.Group(bad))
				}
				rsc.Keep(next[j])
			}
			changed := false
			for j := range deltas {
				if next[j] != deltas[j] {
					deltas[j] = deltaSlots[j].Set(next[j])
					changed = true
				}
			}
			rsc.Release()
			if !changed {
				break
			}
		}

		// Phase 2: add recovery groups layer by layer. The first, strict
		// pass accepts a group only if every member either starts outside
		// the span (harmless), starts in the invariant and is original
		// closed behavior, or strictly decreases the rank — which keeps the
		// span cycle-free by construction. States the strict pass cannot
		// serve (typically because their groups' members span several
		// layers, as in the chain protocols) get a second, lenient pass
		// whose members may land anywhere inside the span; Phase 3's cycle
		// and reachability analyses then police what the lenient pass let
		// through.
		isc := m.Protect()
		okInsideOf := func(p *program.CompiledProc) bdd.Node {
			return m.And(p.Trans, s.Prime(invariant.Node()))
		}
		ranks := []bdd.Node{invariant.Node()}
		ranked := isc.Slot(invariant.Node())
		remaining := isc.Slot(m.Diff(span.Node(), invariant.Node()))
		newlyS := isc.Slot(bdd.False)
		for pass := 0; pass < 2 && remaining.Node() != bdd.False; pass++ {
			strict := pass == 0
			for remaining.Node() != bdd.False {
				newlyS.Set(bdd.False)
				for j, p := range c.Procs {
					cand := m.AndN(p.WriteOK, remaining.Node(), s.Prime(ranked.Node()),
						m.Not(mtHard), m.Not(banned.Node()), s.ValidTrans())
					if cand == bdd.False {
						continue
					}
					csc := m.Protect()
					group := csc.Keep(p.Group(cand))
					bm := csc.Slot(m.And(group, m.Or(mtHard, banned.Node())))
					// Members inside the invariant must already be original
					// behavior that stays inside.
					bm.Set(m.Or(bm.Node(), m.AndN(group, invariant.Node(), m.Not(okInsideOf(p)))))
					if strict {
						// Members from unranked states must land in the
						// ranked set; members from rank r strictly below r.
						bm.Set(m.Or(bm.Node(), m.AndN(group, remaining.Node(), m.Not(s.Prime(ranked.Node())))))
						below := csc.Slot(bdd.False)
						for r, rankSet := range ranks {
							if r > 0 {
								bm.Set(m.Or(bm.Node(),
									m.AndN(group, rankSet, m.Not(s.Prime(below.Node())))))
							}
							below.Set(m.Or(below.Node(), rankSet))
						}
					} else {
						// Lenient: members from span states must stay inside
						// the span.
						bm.Set(m.Or(bm.Node(), m.AndN(group, span.Node(), m.Not(s.Prime(span.Node())))))
					}
					accepted := m.Diff(group, p.Group(bm.Node()))
					if accepted == bdd.False {
						csc.Release()
						continue
					}
					csc.Keep(accepted)
					deltas[j] = deltaSlots[j].Set(m.Or(deltas[j], accepted))
					newlyS.Set(m.Or(newlyS.Node(), m.And(src(c, m.AndN(accepted, remaining.Node(), s.Prime(ranked.Node()))), remaining.Node())))
					csc.Release()
				}
				if newlyS.Node() == bdd.False {
					break
				}
				ranks = append(ranks, isc.Keep(newlyS.Node()))
				ranked.Set(m.Or(ranked.Node(), newlyS.Node()))
				remaining.Set(m.Diff(remaining.Node(), newlyS.Node()))
			}
		}

		// Phase 3: prune states that could not be given recovery or whose
		// lenient recovery has no actual path back to the invariant, restore
		// fault closure of the span, and re-check for cycles outside the
		// invariant (original and lenient transitions in T−S are not
		// rank-constrained).
		spanParts := make([]bdd.Node, len(deltas))
		for i, dl := range deltas {
			spanParts[i] = isc.Keep(m.AndN(dl, span.Node(), s.Prime(span.Node())))
		}
		recoverable, err := eng.BackwardReachableParts(ctx, invariant.Node(), spanParts)
		if err != nil {
			isc.Release()
			return nil, engineErr(ctx, err)
		}
		unreach := m.Diff(m.Diff(span.Node(), invariant.Node()), recoverable)
		shrunk := false
		if remaining.Node() != bdd.False || unreach != bdd.False {
			span.Set(m.Diff(span.Node(), m.Or(remaining.Node(), unreach)))
			shrunk = true
		}
		// Restore fault closure: states with a fault chain out of the span
		// (one backward reachability under the fault partitions) drop out.
		esc, err := eng.BackwardReachableParts(ctx, m.Diff(s.ValidCur(), span.Node()), c.FaultParts)
		if err != nil {
			isc.Release()
			return nil, engineErr(ctx, err)
		}
		if cut := m.And(span.Node(), esc); cut != bdd.False {
			span.Set(m.Diff(span.Node(), cut))
			shrunk = true
		}
		if nextInv := m.And(invariant.Node(), span.Node()); nextInv != invariant.Node() {
			invariant.Set(nextInv)
			shrunk = true
		}
		isc.Release()
		if invariant.Node() == bdd.False {
			return nil, ErrNotRepairable
		}

		union := unionS.Set(m.OrN(deltas...))
		// States in T−S from which an infinite program-only path avoids the
		// invariant forever (greatest fixpoint).
		cyclic := program.CyclicCore(c, deltas, m.Diff(span.Node(), invariant.Node()))
		if cyclic != bdd.False {
			banned.Set(m.Or(banned.Node(), m.AndN(union, cyclic, s.Prime(cyclic))))
			continue
		}
		if shrunk {
			continue
		}

		// Structural convergence: audit the Section-IV heuristic's bets
		// against the repaired program's actual reachable set.
		trueReach, err := eng.ReachableParts(ctx, invariant.Node(), append(append([]bdd.Node{}, deltas...), c.FaultParts...))
		if err != nil {
			return nil, engineErr(ctx, err)
		}
		violation := m.AndN(union, mt, trueReach)
		if violation != bdd.False {
			banned.Set(m.Or(banned.Node(), violation))
			continue
		}

		stats.Total = time.Since(start)
		stats.BDDNodes = m.Size()
		opts.logf("cautious: converged after %d outer iteration(s)", outer)
		// The result's relations outlive this call's scope; root them for
		// the life of the manager.
		res := &Result{
			Trans:     m.Ref(union),
			Invariant: m.Ref(invariant.Node()),
			FaultSpan: m.Ref(span.Node()),
			Stats:     stats,
		}
		// Cautious repair prices its result but never minimizes: the
		// algorithm's removals are forced by safety, not chosen by weight.
		if opts.Costs != nil {
			wsc := m.Protect()
			measureCosts(c, res, wsc.Keep(buildWeight(c, opts.Costs)))
			wsc.Release()
		}
		return res, nil
	}
	return nil, ErrNoConvergence
}
