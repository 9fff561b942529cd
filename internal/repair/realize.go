package repair

import (
	"repro/internal/bdd"
	"repro/internal/program"
)

// Realize implements Step 2 (Algorithm 2): it revises the intermediate
// program delta — the output of Add-Masking — into a realizable one by
// removing transitions only.
//
// Line 1 of Algorithm 2: every transition starting outside the fault-span T
// is added for free, because those states are never reached; their presence
// lets read-restriction groups that straddle the span boundary survive.
// Then, for each process, the algorithm keeps exactly the transitions whose
// entire group is present (the closed form of the Algorithm-2 loop; the
// explicit engine implements the literal loop with ExpandGroup and tests
// assert both agree — see DESIGN.md §4).
//
// The result is the union of the per-process realizable transition sets.
// It may still contain deadlocks within T; Algorithm 1's outer loop detects
// those and re-runs both steps with an augmented safety specification.
func Realize(c *program.Compiled, delta, span bdd.Node) bdd.Node {
	parts := RealizeParts(c, delta, span)
	m := c.Space.M
	sc := m.Protect()
	defer sc.Release()
	for _, p := range parts {
		sc.Keep(p)
	}
	out := sc.Slot(bdd.False)
	for _, p := range parts {
		out.Set(m.Or(out.Node(), p))
	}
	return out.Node()
}

// RealizeParts is Realize exposing the per-process transition sets δ_j. Each
// part is realizable by its process (a union of complete groups); the
// program's transitions are their union. The caller may remove further whole
// groups from a part (e.g. to break livelocks) without losing realizability.
func RealizeParts(c *program.Compiled, delta, span bdd.Node) []bdd.Node {
	m := c.Space.M
	sc := m.Protect()
	defer sc.Release()
	free := m.And(m.Not(span), c.Space.ValidTrans())
	d := sc.Keep(m.Or(m.And(delta, c.Space.ValidTrans()), free))
	parts := make([]bdd.Node, len(c.Procs))
	for j, p := range c.Procs {
		// Earlier parts must survive the later processes' group closures.
		parts[j] = sc.Keep(p.MaxRealizableSubset(d))
	}
	return parts
}
