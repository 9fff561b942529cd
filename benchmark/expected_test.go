package main

import (
	"context"
	"flag"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/explicit"
	"repro/internal/parse"
)

var update = flag.Bool("update", false, "rewrite expected.json from the symbolic pipeline")

// families lists every job family the workloads generate.
var families = []string{
	"sc/11", "sc/12", "sc/13",
	"ba/5", "ba/6", "ba/7", "bafs/3", "bafs/4",
	"traffic", "minichain/3", "minichain/4", "tmr", "ring/3", "bafs/2",
}

// familyDef builds a family's model the way the workloads do.
func familyDef(t *testing.T, fam string) *repro.Def {
	t.Helper()
	var def *repro.Def
	var err error
	switch {
	case fam == "traffic":
		def, err = parse.Program(trafficModel("traffic"))
	case strings.HasPrefix(fam, "minichain/"):
		def, err = parse.Program(minichainModel("minichain", int(fam[len(fam)-1]-'0')))
	case fam == "tmr":
		def, err = core.CaseStudy("tmr", 0)
	default:
		name, n, _ := strings.Cut(fam, "/")
		k := 0
		for _, c := range n {
			k = 10*k + int(c-'0')
		}
		def, err = core.CaseStudy(name, k)
	}
	if err != nil {
		t.Fatalf("%s: %v", fam, err)
	}
	return def
}

// explicitLimit is the largest state space cross-checked by enumeration.
const explicitLimit = 1 << 12

// TestExpectedMatchesExplicit re-derives every expected count with a serial
// repair and verify, and cross-checks the small models against the
// explicit-state oracle: masking tolerance by graph search, and the three
// state counts by enumeration.
func TestExpectedMatchesExplicit(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]counts{}
	crossChecked := 0
	for _, fam := range families {
		if testing.Short() && !*update && fam != "traffic" && fam != "tmr" {
			continue
		}
		def := familyDef(t, fam)
		ctx := context.Background()
		serial := repro.WithEngine(repro.EngineConfig{Workers: 1})
		c, res, err := repro.Repair(ctx, def, serial)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		rep, err := repro.Verify(ctx, c, res, serial)
		if err != nil || !rep.OK() {
			t.Fatalf("%s: verify: %v\n%v", fam, err, rep)
		}
		cnt := counts{
			Reachable: res.Stats.ReachableStates,
			Invariant: repro.CountStates(c, res.Invariant),
			FaultSpan: repro.CountStates(c, res.FaultSpan),
		}
		got[fam] = cnt
		t.Logf("%s: %+v", fam, cnt)
		if !*update && exp[fam] != cnt {
			t.Errorf("%s: symbolic counts %+v, expected.json has %+v", fam, cnt, exp[fam])
		}

		states := 1
		for _, v := range c.Space.Vars {
			states *= v.Domain
		}
		if states > explicitLimit {
			continue
		}
		sys, err := explicit.FromCompiled(c)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		crossChecked++
		inv, span := map[explicit.State]bool{}, map[explicit.State]bool{}
		trans := map[explicit.Trans]bool{}
		sys.FillStates(res.Invariant, inv)
		sys.FillStates(res.FaultSpan, span)
		sys.FillTrans(res.Trans, trans)
		if v := sys.CheckMasking(trans, inv, span); len(v) > 0 {
			t.Errorf("%s: explicit oracle rejects the repair: %v", fam, v)
		}
		reach := sys.Reachable(sys.Invariant, sys.AllProg(), sys.Fault)
		ex := counts{Reachable: float64(len(reach)), Invariant: float64(len(inv)), FaultSpan: float64(len(span))}
		if ex != cnt {
			t.Errorf("%s: explicit counts %+v, symbolic %+v", fam, ex, cnt)
		}
	}
	if crossChecked == 0 {
		t.Error("no family was small enough to cross-check explicitly")
	}
	if *update {
		if err := writeJSON("expected.json", got); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWrongExpectedCountFlagged checks that a job whose counts disagree
// with the expectation counts as failed.
func TestWrongExpectedCountFlagged(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	deck, err := daemonJob("traffic", "flag", 0)
	if err != nil {
		t.Fatal(err)
	}
	deck.id = "traffic#flag"
	o := runLayers(context.Background(), deck, layerConfig{workers: 1, sharedVerify: true}, newTracer(), 1)
	if p := check(o, exp); len(p) > 0 {
		t.Fatalf("correct job flagged: %v", p)
	}
	wrong := map[string]counts{}
	for k, v := range exp {
		wrong[k] = v
	}
	w := wrong["traffic"]
	w.FaultSpan++
	wrong["traffic"] = w
	if p := check(o, wrong); len(p) != 1 || !strings.Contains(p[0], "counts") {
		t.Fatalf("wrong fault-span count not flagged: %v", p)
	}
	delete(wrong, "traffic")
	if p := check(o, wrong); len(p) != 1 {
		t.Fatalf("missing expectation not flagged: %v", p)
	}
	o.verified = false
	if p := check(o, exp); len(p) != 1 {
		t.Fatalf("failed verdict not flagged: %v", p)
	}
}
