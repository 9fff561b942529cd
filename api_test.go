package repro

import (
	"context"
	"errors"
	"fmt"
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

// TestRepairWithCostModel checks the cost contract on a quick ladder. Each
// instance runs twice under unit weights: a baseline arm that prices the
// synthesis but leaves it cost-blind, and a WithCostModel arm that minimises.
// The arms must reach identical verdicts, the minimising arm must achieve no
// more cost than the baseline, and it must achieve strictly less on at least
// one instance — otherwise the minimisation did nothing.
func TestRepairWithCostModel(t *testing.T) {
	ctx := context.Background()
	unit := CostModel{Default: 1}
	baseline := DefaultOptions()
	baseline.Costs = &unit
	improved := false
	for _, tc := range []struct {
		name string
		n    int
	}{{"ba", 3}, {"bafs", 2}, {"sc", 8}, {"ring", 2}, {"tmr", 0}} {
		t.Run(fmt.Sprintf("%s%d", tc.name, tc.n), func(t *testing.T) {
			var results [2]*Result
			var reports [2]*Report
			for i, opt := range []Option{WithOptions(baseline), WithCostModel(unit)} {
				def, err := CaseStudy(tc.name, tc.n)
				if err != nil {
					t.Fatal(err)
				}
				c, res, err := Repair(ctx, def, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Costed || res.AchievedCost < 0 {
					t.Fatalf("arm %d reported Costed=%t AchievedCost=%g", i, res.Costed, res.AchievedCost)
				}
				if i == 0 {
					// Under unit weights the baseline's achieved cost is its
					// recovery transition count.
					m := c.Space.M
					if n := CountTransitions(c, m.AndN(res.Trans, m.Not(res.Invariant), c.Space.ValidTrans())); res.AchievedCost != n {
						t.Errorf("baseline achieved cost %g, want its %g recovery transitions", res.AchievedCost, n)
					}
				}
				rep, err := Verify(ctx, c, res)
				if err != nil {
					t.Fatal(err)
				}
				results[i], reports[i] = res, rep
			}
			base, min := reports[0], reports[1]
			if !min.OK() {
				t.Fatalf("costed repair fails verification:\n%s", min)
			}
			if len(base.Checks) != len(min.Checks) {
				t.Fatalf("check counts differ: baseline %d, mincost %d", len(base.Checks), len(min.Checks))
			}
			for i, bc := range base.Checks {
				if mc := min.Checks[i]; bc.Name != mc.Name || bc.OK != mc.OK {
					t.Errorf("verdicts differ: baseline %q ok=%t, mincost %q ok=%t", bc.Name, bc.OK, mc.Name, mc.OK)
				}
			}
			baseCost, minCost := results[0].AchievedCost, results[1].AchievedCost
			t.Logf("achieved cost: baseline %g, mincost %g", baseCost, minCost)
			if minCost > baseCost {
				t.Errorf("mincost achieved %g > baseline %g", minCost, baseCost)
			}
			if minCost < baseCost {
				improved = true
			}
		})
	}
	if !improved {
		t.Error("cost-aware synthesis improved no instance")
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
