package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bdd"
	"repro/internal/repair"
)

func TestRunLazyWithVerify(t *testing.T) {
	def, err := CaseStudy("sc", 3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), Job{Def: def, Algorithm: LazyRepair, Options: repair.DefaultOptions(), Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Report == nil || !out.Report.OK() {
		t.Fatalf("verification missing or failed: %v", out.Report)
	}
	if out.CompileNS <= 0 {
		t.Fatal("compile time not recorded")
	}
	if out.Result.Stats.Total <= 0 {
		t.Fatal("repair time not recorded")
	}
}

func TestRunDefaultAlgorithmIsLazy(t *testing.T) {
	def, _ := CaseStudy("ba", 2)
	out, err := Run(context.Background(), Job{Def: def, Options: repair.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if out.Report != nil {
		t.Fatal("verify was not requested")
	}
}

func TestRunCautious(t *testing.T) {
	def, _ := CaseStudy("ba", 2)
	out, err := Run(context.Background(), Job{Def: def, Algorithm: CautiousRepair, Options: repair.DefaultOptions(), Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Report.OK() {
		t.Fatalf("cautious result failed verification:\n%s", out.Report)
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	def, _ := CaseStudy("ba", 2)
	if _, err := Run(context.Background(), Job{Def: def, Algorithm: "magic"}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

func TestCaseStudyValidation(t *testing.T) {
	cases := []struct {
		name string
		n    int
		ok   bool
	}{
		{"ba", 3, true},
		{"bafs", 2, true},
		{"sc", 4, true},
		{"ba", 0, false},
		{"bafs", 0, false},
		{"sc", 1, false},
		{"ring", 3, true},
		{"ring", 1, false},
		{"tmr", 0, true},
		{"xx", 3, false},
	}
	for _, tc := range cases {
		_, err := CaseStudy(tc.name, tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("CaseStudy(%q, %d): err=%v, want ok=%v", tc.name, tc.n, err, tc.ok)
		}
	}
	if len(CaseStudyNames()) != 5 {
		t.Error("expected five case studies")
	}
}

// TestRunBudget checks that a node budget blown mid-synthesis surfaces as a
// clean *bdd.BudgetError from Run: the budget check panics at a collection
// safe point and must come back as an error at the run boundary.
func TestRunBudget(t *testing.T) {
	def, err := CaseStudy("sc", 8)
	if err != nil {
		t.Fatal(err)
	}
	opts := repair.DefaultOptions()
	opts.NodeBudget = 100 // far below the compiled model's working set
	_, err = Run(context.Background(), Job{Def: def, Algorithm: LazyRepair, Options: opts})
	var be *bdd.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("Run with blown budget returned %v, want *bdd.BudgetError", err)
	}
}

// TestRunRejectsEngineSelectors checks that the deprecated engine selectors
// accept only their serial values: any other mode or worker count fails the
// run instead of silently running serially.
func TestRunRejectsEngineSelectors(t *testing.T) {
	def, err := CaseStudy("ba", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []struct {
		mode    string
		workers int
		ok      bool
	}{
		{"", 0, true}, {"", 1, true},
		{"", 2, false}, {"", -1, false}, {"shared", 0, false}, {"partitioned", 1, false},
	} {
		opts := repair.DefaultOptions()
		opts.Mode, opts.Workers = sel.mode, sel.workers
		for _, alg := range []Algorithm{LazyRepair, CautiousRepair} {
			_, err := Run(context.Background(), Job{Def: def, Algorithm: alg, Options: opts})
			if (err == nil) != sel.ok {
				t.Errorf("%s mode=%q workers=%d: err = %v, want ok=%t", alg, sel.mode, sel.workers, err, sel.ok)
			}
		}
	}
}
