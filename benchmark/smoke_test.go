package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

var workloads = []string{"chain", "byzantine-cost", "daemon"}

// TestMain runs the tests under the benchmark's own GOMAXPROCS, so that
// they see the engines and the service pool the benchmark measures.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(benchProcs)
	os.Exit(m.Run())
}

// wantSpans are the span names the traced run of each workload must emit.
var wantSpans = map[string][]string{
	"chain": {"job", "program.compile", "program.engine", "repair", "repair.init",
		"repair.step1", "repair.step2", "verify"},
	"byzantine-cost": {"job", "program.compile", "program.engine", "repair", "repair.init",
		"repair.step1", "repair.step2", "repair.thin", "witness", "verify"},
	"daemon": {"job", "service.queue", "service.run", "parse", "program.compile",
		"program.engine", "repair", "repair.step1", "repair.step2", "verify"},
}

// short runs one workload for a couple of seconds with a single set-up.
func short(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	r, err := runWorkload(context.Background(), config{workload: workload, seed: 7, seconds: 2, trace: trace, setups: 1})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if len(r.Problems) > 0 || r.Failed > 0 {
		t.Fatalf("%s: %d of %d jobs failed: %v", workload, r.Failed, r.Attempted, r.Problems)
	}
	return r
}

// TestSmoke runs every workload for a few jobs, untraced and traced, and
// checks that each mode reports exactly its metrics with their units, and
// that the traced run emits the workload's spans.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				r := short(t, w, trace)
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(r.Metrics), len(want))
				}
				for name, unit := range want {
					if m, ok := r.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, name, m, unit)
					}
				}
				if !trace {
					if r.Tail == nil || r.Tail.Samples < 1 {
						t.Errorf("no tail sample record: %+v", r.Tail)
					}
					continue
				}
				names := spanNames(r.spans)
				for _, n := range wantSpans[w] {
					if !names[n] {
						t.Errorf("traced run emitted no %s span", n)
					}
				}
				for _, s := range r.spans {
					if s.SelfNS < 0 || s.End < s.Start {
						t.Errorf("span %+v has negative duration or self time", s)
					}
				}
				if len(r.Counters) == 0 {
					t.Error("traced run recorded no work counters")
				}
			}
		})
	}
}

// TestCountersRepeat runs each workload's traced pass twice with the same
// seed: the deterministic work counters of every job both runs did must be
// identical. Counters that differ under the multi-worker engine are
// reported, not failed.
func TestCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			a, b := short(t, w, true), short(t, w, true)
			same := 0
			for id, ca := range a.Counters {
				cb, ok := b.Counters[id]
				if !ok {
					continue
				}
				same++
				if ca == cb {
					continue
				}
				if a.Workers > 1 {
					t.Logf("%s: %+v vs %+v under %d workers", id, ca, cb, a.Workers)
				} else {
					t.Errorf("%s: %+v vs %+v on a serial engine", id, ca, cb)
				}
			}
			if same == 0 {
				t.Error("the two runs share no job")
			}
		})
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// metrics this program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		listed []struct{ Name, Unit string }
		code   map[string]string
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(set.listed) != len(set.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(set.listed), len(set.code))
		}
		for _, m := range set.listed {
			if set.code[m.Name] != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, set.code[m.Name])
			}
		}
	}
}

// spanNames is the set of span names present.
func spanNames(spans []span) map[string]bool {
	names := make(map[string]bool)
	for _, s := range spans {
		names[s.Name] = true
	}
	return names
}
