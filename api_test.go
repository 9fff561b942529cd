package repro

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestRepairSingleEntry drives the redesigned entry point through both
// algorithms and checks the result verifies.
func TestRepairSingleEntry(t *testing.T) {
	for _, alg := range []Algorithm{LazyAlg, CautiousAlg} {
		def, err := CaseStudy("sc", 4)
		if err != nil {
			t.Fatal(err)
		}
		c, res, err := Repair(context.Background(), def,
			WithAlgorithm(alg), WithEngine(EngineConfig{Workers: 1}))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		rep, err := Verify(context.Background(), c, res, WithEngine(EngineConfig{Workers: 1}))
		if err != nil {
			t.Fatalf("%v: verify: %v", alg, err)
		}
		if !rep.OK() {
			t.Fatalf("%v: verification failed:\n%s", alg, rep)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if LazyAlg.String() != "lazy" || CautiousAlg.String() != "cautious" {
		t.Fatalf("algorithm names: %q, %q", LazyAlg, CautiousAlg)
	}
	if s := Algorithm(7).String(); !strings.Contains(s, "7") {
		t.Fatalf("unknown algorithm renders as %q", s)
	}
}

func TestRepairTimeout(t *testing.T) {
	def, err := CaseStudy("ba", 6)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Repair(context.Background(), def, WithTimeout(time.Nanosecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestVerifyOptionsAgree checks the redesigned Verify against itself across
// manager tuning: same verdict, any options.
func TestVerifyOptionsAgree(t *testing.T) {
	def, _ := CaseStudy("sc", 4)
	c, res, err := Repair(context.Background(), def)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Verify(context.Background(), c, res)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := Verify(context.Background(), c, res, WithEngine(EngineConfig{Reorder: 1 << 14}))
	if err != nil {
		t.Fatal(err)
	}
	if plain.OK() != tuned.OK() || !plain.OK() {
		t.Fatalf("verify verdicts disagree: default %v, reordering %v", plain.OK(), tuned.OK())
	}
}

// TestEngineWorkersSerialOnly checks that the deprecated
// EngineConfig.Workers accepts only the serial values: a wider engine is an
// error from both Repair and Verify, never a silent serial run.
func TestEngineWorkersSerialOnly(t *testing.T) {
	def, _ := CaseStudy("sc", 3)
	c, res, err := Repair(context.Background(), def, WithEngine(EngineConfig{Workers: 0}))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{-1, 2, 4} {
		wide := WithEngine(EngineConfig{Workers: w})
		if _, _, err := Repair(context.Background(), def, wide); err == nil {
			t.Errorf("Repair with %d workers succeeded, want an error", w)
		}
		if _, err := Verify(context.Background(), c, res, wide); err == nil {
			t.Errorf("Verify with %d workers succeeded, want an error", w)
		}
	}
}

// TestVerifyBudgetError pins the run-boundary contract on the verification
// path: a node budget blown while checking must come back as a *BudgetError
// wrapped in an ordinary error, never as a panic escaping Verify.
func TestVerifyBudgetError(t *testing.T) {
	def, _ := CaseStudy("sc", 4)
	c, res, err := Repair(context.Background(), def)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Verify(context.Background(), c, res, WithEngine(EngineConfig{NodeBudget: 16}))
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.Live <= be.Budget || be.Budget != 16 {
		t.Fatalf("implausible BudgetError: %+v", be)
	}
}

// TestRepairWithCostModel drives the cost-carrying API end to end: a costed
// run must verify exactly like an uncosted one, report exact weighted counts,
// and achieve no more cost than the cost-blind synthesis under the same
// weights (measured here by re-pricing the uncosted result's transitions).
func TestRepairWithCostModel(t *testing.T) {
	def, err := CaseStudy("ba", 3)
	if err != nil {
		t.Fatal(err)
	}
	c, res, err := Repair(context.Background(), def, WithCostModel(CostModel{Default: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Costed || res.AchievedCost <= 0 {
		t.Fatalf("costed run reported Costed=%t AchievedCost=%g", res.Costed, res.AchievedCost)
	}
	rep, err := Verify(context.Background(), c, res)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("costed repair fails verification:\n%s", rep)
	}

	blindDef, _ := CaseStudy("ba", 3)
	bc, blind, err := Repair(context.Background(), blindDef)
	if err != nil {
		t.Fatal(err)
	}
	// Under unit weights the cost-blind achieved cost is its recovery
	// transition count; the minimizing run must not exceed it.
	blindCost := CountTransitions(bc, bc.Space.M.AndN(blind.Trans, bc.Space.M.Not(blind.Invariant), bc.Space.ValidTrans()))
	if res.AchievedCost > blindCost {
		t.Fatalf("cost-aware achieved %g > cost-blind %g", res.AchievedCost, blindCost)
	}
}

// TestCrossManagerPanics pins the misuse bug: handing a Node from one
// Compiled's manager to another must panic with a message naming the
// manager mismatch rather than silently counting the wrong function.
func TestCrossManagerPanics(t *testing.T) {
	bigDef, _ := CaseStudy("ba", 3)
	_, bigRes, err := Repair(context.Background(), bigDef)
	if err != nil {
		t.Fatal(err)
	}
	smallDef, _ := CaseStudy("sc", 3)
	small, _, err := Repair(context.Background(), smallDef)
	if err != nil {
		t.Fatal(err)
	}
	foreign := bigRes.Trans // index valid only in big's manager

	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s accepted a foreign node", name)
				return
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "not from this manager") {
				t.Errorf("%s panicked with unhelpful message: %v", name, r)
			}
		}()
		f()
	}
	expectPanic("CountStates", func() { CountStates(small, foreign) })
	expectPanic("CountTransitions", func() { CountTransitions(small, foreign) })
	expectPanic("Intersects", func() { Intersects(small, foreign, bigRes.Invariant) })
}

// TestRepairUnknownAlgorithm: an Algorithm value outside the declared
// constants is an error, not a silent fallback to lazy repair.
func TestRepairUnknownAlgorithm(t *testing.T) {
	def, err := CaseStudy("ba", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Repair(context.Background(), def, WithAlgorithm(Algorithm(7))); err == nil {
		t.Fatal("Repair with Algorithm(7) succeeded")
	}
}
