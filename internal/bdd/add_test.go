package bdd

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// addOracle is a map-based model of a weighted function over nv variables:
// value[assignment bitmask] = weight. The ADD under test must agree with it
// on every one of the 2^nv assignments.
type addOracle struct {
	nv   int
	vals []int64
}

func newAddOracle(nv int) *addOracle {
	return &addOracle{nv: nv, vals: make([]int64, 1<<nv)}
}

func (o *addOracle) combine(other *addOracle, f func(a, b int64) int64) *addOracle {
	out := newAddOracle(o.nv)
	for i := range out.vals {
		out.vals[i] = f(o.vals[i], other.vals[i])
	}
	return out
}

// checkAgainst evaluates the ADD on every assignment and compares.
func (o *addOracle) checkAgainst(t *testing.T, m *Manager, f Node, what string) {
	t.Helper()
	assign := make([]bool, o.nv)
	for mask := 0; mask < 1<<o.nv; mask++ {
		for v := 0; v < o.nv; v++ {
			assign[v] = mask&(1<<v) != 0
		}
		if got, want := m.AddEval(f, assign), o.vals[mask]; got != want {
			t.Fatalf("%s: assignment %b: ADD evaluates to %d, oracle says %d", what, mask, got, want)
		}
	}
}

// randWeighted builds a random weighted function as a sum of weighted random
// cubes, returning both the ADD and its oracle. Weights stay small enough
// that sums cannot saturate.
func randWeighted(t *testing.T, m *Manager, rng *rand.Rand, vars []Node, terms int) (Node, *addOracle) {
	t.Helper()
	nv := len(vars)
	o := newAddOracle(nv)
	sc := m.Protect()
	defer sc.Release()
	acc := sc.Slot(False) // constant 0
	for i := 0; i < terms; i++ {
		cube := sc.Slot(True)
		careMask, valMask := 0, 0
		for v := 0; v < nv; v++ {
			switch rng.Intn(3) {
			case 0:
				careMask |= 1 << v
				valMask |= 1 << v
				cube.Set(m.And(cube.Node(), vars[v]))
			case 1:
				careMask |= 1 << v
				cube.Set(m.And(cube.Node(), m.Not(vars[v])))
			}
		}
		w := int64(rng.Intn(50) + 1)
		acc.Set(m.AddPlus(acc.Node(), m.FromBDD(cube.Node(), w)))
		for mask := 0; mask < 1<<nv; mask++ {
			if mask&careMask == valMask {
				o.vals[mask] += w
			}
		}
	}
	return m.Ref(acc.Node()), o
}

// TestAddConstInterning pins the terminal representation: 0 and 1 are the
// Boolean terminals, every other value is one interned slot with a stable
// value, and terminals read back as ADD terminals.
func TestAddConstInterning(t *testing.T) {
	m := New()
	if m.AddConst(0) != False || m.AddConst(1) != True {
		t.Fatal("AddConst(0)/AddConst(1) must be the Boolean terminals")
	}
	five := m.AddConst(5)
	if five2 := m.AddConst(5); five2 != five {
		t.Fatalf("AddConst(5) not interned: %d then %d", five, five2)
	}
	if !m.IsAddTerminal(five) || m.AddValue(five) != 5 {
		t.Fatalf("AddConst(5) does not read back as a 5-valued terminal")
	}
	if m.AddValue(False) != 0 || m.AddValue(True) != 1 {
		t.Fatal("Boolean terminals must carry values 0 and 1")
	}
	inf := m.AddConst(AddInf)
	if m.AddValue(inf) != AddInf {
		t.Fatal("AddInf terminal does not round-trip")
	}
	x := m.NewVar("x")
	if m.IsAddTerminal(x) {
		t.Fatal("a variable node is not an ADD terminal")
	}
}

// TestAddApplyOracle checks the three binary apply operators against the
// map-based oracle on random weighted functions.
func TestAddApplyOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		m := New()
		vars := m.NewVars(6)
		a, ao := randWeighted(t, m, rng, vars, 4)
		b, bo := randWeighted(t, m, rng, vars, 4)
		ao.checkAgainst(t, m, a, "operand a")
		bo.checkAgainst(t, m, b, "operand b")
		min64 := func(x, y int64) int64 {
			if x < y {
				return x
			}
			return y
		}
		max64 := func(x, y int64) int64 {
			if x > y {
				return x
			}
			return y
		}
		ao.combine(bo, func(x, y int64) int64 { return x + y }).checkAgainst(t, m, m.AddPlus(a, b), "AddPlus")
		ao.combine(bo, min64).checkAgainst(t, m, m.AddMin(a, b), "AddMin")
		ao.combine(bo, max64).checkAgainst(t, m, m.AddMax(a, b), "AddMax")
		if m.AddMin(a, a) != a || m.AddMax(a, a) != a {
			t.Fatal("min/max are not idempotent")
		}
		// Commutativity must hold on the nose (canonical structure).
		if m.AddPlus(a, b) != m.AddPlus(b, a) || m.AddMin(a, b) != m.AddMin(b, a) {
			t.Fatal("binary apply is not commutative")
		}
	}
}

// TestAddSaturation pins the +∞ arithmetic: AddInf is absorbing under
// saturating addition and the identity of min.
func TestAddSaturation(t *testing.T) {
	m := New()
	x := m.NewVar("x")
	inf := m.AddConst(AddInf)
	w := m.FromBDD(x, 7)
	if got := m.AddPlus(inf, m.AddConst(3)); m.AddValue(got) != AddInf {
		t.Fatalf("AddInf + 3 = %d, want AddInf", m.AddValue(got))
	}
	if got := m.AddMin(inf, w); got != w {
		t.Fatal("min(AddInf, f) must be f")
	}
	lo := m.AddConst(math.MinInt64)
	if got := m.AddPlus(lo, m.AddConst(-1)); m.AddValue(got) != math.MinInt64 {
		t.Fatal("negative saturation must clamp at MinInt64")
	}
}

// TestFromBDDThreshold checks the two bridge directions compose: lifting a
// BDD to weight w and thresholding at w recovers the BDD, and thresholding
// slices a multi-weight function into its cost classes.
func TestFromBDDThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := New()
	vars := m.NewVars(6)
	f, _ := randWeighted(t, m, rng, vars, 1)
	support := m.Threshold(f, 1) // the lifted cube: everything weighted ≥ 1
	w := m.AddMaxValue(f)
	if w > 0 && m.FromBDD(support, w) != f {
		t.Fatal("FromBDD(Threshold(f,1), max) does not recover a single-weight lift")
	}
	// Cost classes partition the support: each assignment lands in exactly
	// the class of its weight.
	g, og := randWeighted(t, m, rng, vars, 3)
	for _, v := range m.AddTerminals(g) {
		atLeast := m.Threshold(g, v)
		var above Node
		if v == AddInf {
			above = False
		} else {
			above = m.Threshold(g, v+1)
		}
		class := m.Diff(atLeast, above)
		assign := make([]bool, len(vars))
		for mask := 0; mask < 1<<len(vars); mask++ {
			for i := range vars {
				assign[i] = mask&(1<<i) != 0
			}
			want := og.vals[mask] == v
			if got := m.Eval(class, assign); got != want {
				t.Fatalf("class %d: assignment %b: in-class=%v, oracle weight %d", v, mask, got, og.vals[mask])
			}
		}
	}
	if vs := m.AddTerminals(g); len(vs) == 0 {
		t.Fatal("AddTerminals returned no classes")
	}
}

// TestMinAbstractOracle checks the existential cost projection against a
// brute-force minimum over the abstracted variables.
func TestMinAbstractOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 10; round++ {
		m := New()
		vars := m.NewVars(6)
		f, o := randWeighted(t, m, rng, vars, 4)
		// Abstract a random subset of variables.
		var cubeVars []int
		cubeMask := 0
		for v := range vars {
			if rng.Intn(2) == 0 {
				cubeVars = append(cubeVars, v)
				cubeMask |= 1 << v
			}
		}
		proj := m.MinAbstract(f, m.Cube(cubeVars))
		assign := make([]bool, len(vars))
		for mask := 0; mask < 1<<len(vars); mask++ {
			want := int64(math.MaxInt64)
			// Minimum over all completions of the non-abstracted bits.
			for sub := 0; ; sub = (sub - cubeMask) & cubeMask {
				v := o.vals[(mask&^cubeMask)|sub]
				if v < want {
					want = v
				}
				if sub == cubeMask {
					break
				}
			}
			for i := range vars {
				assign[i] = mask&(1<<i) != 0
			}
			if got := m.AddEval(proj, assign); got != want {
				t.Fatalf("MinAbstract: assignment %b: got %d, want %d", mask, got, want)
			}
		}
	}
}

// TestAddSumOracle checks the weighted model count against brute force, and
// its agreement with SatCount on 0/1 functions.
func TestAddSumOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := New()
	vars := m.NewVars(6)
	f, o := randWeighted(t, m, rng, vars, 4)
	var want float64
	for _, v := range o.vals {
		want += float64(v)
	}
	if got := m.AddSum(f); got != want {
		t.Fatalf("AddSum = %g, want %g", got, want)
	}
	cube := m.And(vars[0], m.Not(vars[3]))
	if got, want := m.AddSum(cube), m.SatCount(cube); got != want {
		t.Fatalf("AddSum on a 0/1 function = %g, SatCount = %g", got, want)
	}
}

// TestAddITE checks that the general ITE combinator multiplexes ADDs by a
// BDD condition — the property the cost builder relies on.
func TestAddITE(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := New()
	vars := m.NewVars(6)
	a, ao := randWeighted(t, m, rng, vars, 3)
	b, bo := randWeighted(t, m, rng, vars, 3)
	cond := m.Or(vars[1], m.And(vars[2], m.Not(vars[4])))
	r := m.ITE(cond, a, b)
	assign := make([]bool, len(vars))
	for mask := 0; mask < 1<<len(vars); mask++ {
		for i := range vars {
			assign[i] = mask&(1<<i) != 0
		}
		want := bo.vals[mask]
		if m.Eval(cond, assign) {
			want = ao.vals[mask]
		}
		if got := m.AddEval(r, assign); got != want {
			t.Fatalf("ITE: assignment %b: got %d, want %d", mask, got, want)
		}
	}
}

// TestAddTransferRoundTrip checks Export/Import of weighted terminals: the
// buffer is canonical (manager-independent), a pure BDD still exports as the
// v2 format byte-for-byte, and an ADD round-trips into managers with the
// same and with a different variable order.
func TestAddTransferRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := New()
	vars := m.NewVars(6)
	f, o := randWeighted(t, m, rng, vars, 4)

	// A pure BDD must still use the v2 format (byte-compatibility with
	// existing canonical exports).
	if buf := m.Export(m.And(vars[0], vars[1])); buf[1] != transferVersion {
		t.Fatalf("pure-BDD export uses version %#x, want %#x", buf[1], transferVersion)
	}
	buf := m.Export(f)
	if buf[1] != transferVersionV3 {
		t.Fatalf("weighted export uses version %#x, want %#x", buf[1], transferVersionV3)
	}

	// Same-order import: values agree everywhere and re-export is identical.
	m2 := New()
	m2.NewVars(6)
	g := Import(m2, buf)
	o.checkAgainst(t, m2, g, "same-order import")
	if !bytes.Equal(m2.Export(g), buf) {
		t.Fatal("re-export after same-order import is not byte-identical")
	}

	// Mismatched-order import exercises the ITE rebuild path.
	m3 := New()
	m3.NewVars(6)
	m3.SetOrder([]int{5, 3, 1, 0, 2, 4})
	h := Import(m3, buf)
	o.checkAgainst(t, m3, h, "reordered import")

	// Export from a reordered sender carries the order section and still
	// lands on the same function.
	m.SetOrder([]int{2, 4, 0, 5, 1, 3})
	buf2 := m.Export(f)
	m4 := New()
	m4.NewVars(6)
	o.checkAgainst(t, m4, Import(m4, buf2), "reordered export")
}

// TestAddGCReorderStress interleaves collections, explicit sifting passes and
// order shuffles with ADD operations: terminal slots must survive every
// collection (they are permanently rooted), sifting must skip them, and every
// function must keep its values. Under REPRO_GC_STRESS=1 the automatic
// triggers add collections at nearly every allocation on top.
func TestAddGCReorderStress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New()
	vars := m.NewVars(8)
	f, o := randWeighted(t, m, rng, vars, 5)
	orders := [][]int{
		{7, 6, 5, 4, 3, 2, 1, 0},
		{3, 1, 4, 0, 6, 2, 7, 5},
		{0, 1, 2, 3, 4, 5, 6, 7},
	}
	for round := 0; round < 6; round++ {
		m.GC()
		// Churn: allocate garbage ADDs so collections and sifts have dead
		// weighted structure to chew through.
		g, _ := randWeighted(t, m, rng, vars, 3)
		_ = m.AddMin(f, m.AddPlus(g, m.AddConst(int64(round)+2)))
		m.Deref(g)
		if round%2 == 0 {
			m.Reorder()
		} else {
			m.SetOrder(orders[round%len(orders)])
		}
		m.GC()
		o.checkAgainst(t, m, f, "after stress round")
		// The projection and the slices must also survive post-reorder.
		proj := m.MinAbstract(f, m.Cube([]int{0, 5}))
		if m.AddMinValue(proj) != m.AddMinValue(f) {
			t.Fatal("global minimum changed across GC/reorder")
		}
	}
}
