package program

// This file is the single reachability-fixpoint implementation behind
// ReachableParts and BackwardReachableParts — the frontier-chained scheduler
// (see DESIGN.md §19).
//
// Algorithm. Every partition i carries a snapshot seen[i] ⊆ reached of the
// states its image has already been applied to. Its frontier is
// reached ∖ seen[i]; imaging only the frontier is sound because images
// distribute over union: Image(reached) = Image(seen[i]) ∪ Image(frontier),
// and the invariant Image(seen[i]) ⊆ reached holds from the moment seen[i]
// is advanced. A partition with an empty frontier is saturated and costs
// nothing until other partitions add states — the saturation firing policy.
// When every frontier is empty, reached = seen[i] for all i, so
// Image_i(reached) ⊆ reached for every partition: reached is the (unique)
// least fixpoint, independent of visit order — chaotic iteration of monotone
// operators on a finite lattice. One block holding all partitions is
// chained to convergence (chainBlock).

import (
	"context"

	"repro/internal/bdd"
	"repro/internal/symbolic"
)

// FixpointStats counts the work of the reachability scheduler across an
// engine's lifetime. The counters are observability (RunReport fix_* fields,
// /metrics.json); they are normalized away from reports like the other
// engine counters. All of them are deterministic.
type FixpointStats struct {
	// Rounds is the number of fixpoints run (one scheduler round each).
	Rounds int64
	// Images is the number of image/preimage applications (frontier images
	// only — saturated partitions fire none).
	Images int64
	// PeakFrontier is the largest frontier BDD (in nodes) handed to an
	// image; FinalFrontier is the size of the last non-empty frontier before
	// convergence.
	PeakFrontier  int64
	FinalFrontier int64
}

// FixpointStats returns the scheduler's cumulative work counters.
func (e *Engine) FixpointStats() FixpointStats { return e.fix }

// chainStats accumulates one block's scheduler work; merged into Engine.fix.
type chainStats struct {
	images int64
	peak   int64
	final  int64
}

// image applies one frontier image (or preimage) through a partition.
func image(sp *symbolic.Space, front, part bdd.Node, backward bool) bdd.Node {
	if backward {
		return sp.Preimage(front, part)
	}
	return sp.Image(front, part)
}

// chainBlock advances one block of partitions to its block-local fixpoint:
// starting from the rooted running set local and the given per-partition
// initial frontiers (fronts[k] = local ∖ seen_global[parts[k]]), it chains
// frontier images into local until no partition in the block can add states.
// All nodes are relative to sp's manager; local is updated in place.
func chainBlock(ctx context.Context, sp *symbolic.Space, local *bdd.Rooted,
	parts, fronts []bdd.Node, backward bool, st *chainStats) error {
	m := sp.M
	sc := m.Protect()
	defer sc.Release()
	for _, p := range parts {
		sc.Keep(p)
	}
	// Seen snapshots: everything except the handed-in frontier has already
	// been imaged.
	seen := make([]*bdd.Rooted, len(parts))
	for k := range parts {
		sc.Keep(fronts[k])
		seen[k] = sc.Slot(m.Diff(local.Node(), fronts[k]))
	}
	for {
		progress := false
		for k, p := range parts {
			if p == bdd.False {
				continue
			}
			for {
				if err := ctx.Err(); err != nil {
					return err
				}
				front := m.Diff(local.Node(), seen[k].Node())
				if front == bdd.False {
					break // saturated until another partition adds states
				}
				if n := int64(m.NodeCount(front)); true {
					if n > st.peak {
						st.peak = n
					}
					st.final = n
				}
				seen[k].Set(local.Node())
				img := image(sp, front, p, backward)
				st.images++
				add := m.Diff(img, local.Node())
				if add == bdd.False {
					break
				}
				local.Set(m.Or(local.Node(), add))
				progress = true
			}
		}
		if !progress {
			return nil
		}
	}
}

// fixpoint is the frontier-chained reachability scheduler — the one fixpoint
// loop behind ReachableParts and BackwardReachableParts. init is conjoined
// with ValidCur; the result is the least fixpoint of the partitioned
// (pre)image closure.
func (e *Engine) fixpoint(ctx context.Context, init bdd.Node, parts []bdd.Node, backward bool) (bdd.Node, error) {
	m := e.C.Space.M
	sc := m.Protect()
	defer sc.Release()
	for _, p := range parts {
		sc.Keep(p)
	}
	reached := sc.Slot(m.And(init, e.C.Space.ValidCur()))
	// One block, all partitions, full initial frontiers.
	fronts := make([]bdd.Node, len(parts))
	for k := range fronts {
		fronts[k] = reached.Node()
	}
	var st chainStats
	err := chainBlock(ctx, e.C.Space, reached, parts, fronts, backward, &st)
	e.fix.Rounds++
	e.foldChainStats(st)
	return reached.Node(), err // sound but incomplete on cancellation
}

// foldChainStats merges one block's counters into the engine totals.
func (e *Engine) foldChainStats(st chainStats) {
	e.fix.Images += st.images
	if st.peak > e.fix.PeakFrontier {
		e.fix.PeakFrontier = st.peak
	}
	if st.final > 0 {
		e.fix.FinalFrontier = st.final
	}
}

// CyclicCore returns the greatest fixpoint of states in region with a
// partition-edge successor staying in the set: the states from which an
// infinite path inside region exists. It is the one GFP loop shared by the
// repair algorithms' cycle analysis and the verifier's livelock check.
//
// The fixpoint runs on the union of the partitions restricted to
// region × region, computed once up front: the greatest fixpoint peels the
// set one layer per iteration (a chain of n cells takes ~n iterations), so a
// single static relation whose relational-product subresults stay cached
// across iterations beats re-scanning every partition per iteration.
func CyclicCore(c *Compiled, parts []bdd.Node, region bdd.Node) bdd.Node {
	m := c.Space.M
	s := c.Space
	sc := m.Protect()
	defer sc.Release()
	sc.Keep(region)
	for _, p := range parts {
		sc.Keep(p)
	}
	rel := sc.Slot(bdd.False)
	inside := sc.Keep(m.And(region, s.Prime(region)))
	for _, p := range parts {
		rel.Set(m.Or(rel.Node(), m.And(p, inside)))
	}
	z := sc.Slot(region)
	for {
		next := m.And(z.Node(), m.AndExists(rel.Node(), s.Prime(z.Node()), s.NextCube()))
		if next == z.Node() {
			return z.Node()
		}
		z.Set(next)
	}
}
