package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/repair"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current engine")

const goldenPath = "testdata/golden.json"

// goldenEntry pins one instance's result: the Normalized RunReport and the
// SHA-256 of the canonical export of each synthesized predicate.
type goldenEntry struct {
	Report    json.RawMessage   `json:"report"`
	Predicate map[string]string `json:"predicate_sha256"`
}

// goldenCases are the pinned instances: every built-in case study, the
// cautious baseline, the deep-diameter sc(12), and two weighted runs whose
// Normalized reports keep achieved_cost/cost_removed.
var goldenCases = []struct {
	name   string
	n      int
	alg    Algorithm
	short  bool // keep under -short
	costed bool // weighted run: cost model + minimization on
}{
	{"ba", 3, LazyRepair, true, false},
	{"bafs", 2, LazyRepair, true, false},
	{"sc", 8, LazyRepair, true, false},
	{"ring", 2, LazyRepair, true, false},
	{"tmr", 0, LazyRepair, true, false},
	{"sc", 5, CautiousRepair, true, false},
	{"sc", 12, LazyRepair, false, false},
	{"ba", 3, LazyRepair, true, true},
	{"bafs", 2, LazyRepair, true, true},
}

// canonicalExports serializes the run's three result predicates after pinning
// the manager to the identity variable order. The transfer format depends
// only on the function and the order, so once the order is normalized, two
// runs computed the same functions iff these buffers are byte-identical —
// regardless of node numbering or how many reordering passes each run
// happened to trigger.
func canonicalExports(out *Outcome) [][]byte {
	m := out.Compiled.Space.M
	identity := make([]int, len(m.Order()))
	for i := range identity {
		identity[i] = i
	}
	m.SetOrder(identity)
	res := out.Result
	return [][]byte{m.Export(res.Trans), m.Export(res.Invariant), m.Export(res.FaultSpan)}
}

var predicateNames = []string{"trans", "invariant", "fault_span"}

// goldenRun repairs, verifies and extracts four witnesses for one pinned
// instance, returning its golden entry. workers is passed through the
// deprecated Options.Workers selector (0 = library default).
func goldenRun(t *testing.T, name string, n int, alg Algorithm, costed bool, reorder int64, workers int) goldenEntry {
	t.Helper()
	def, err := CaseStudy(name, n)
	if err != nil {
		t.Fatal(err)
	}
	opts := repair.DefaultOptions()
	opts.Reorder = reorder
	opts.Workers = workers
	if costed {
		opts.Costs = &repair.CostModel{Default: 1, Actions: map[string]int64{"copy": 2}}
		opts.MinimizeCost = true
	}
	job := Job{Def: def, Algorithm: alg, Options: opts, Verify: true, Witnesses: 4}
	out, err := Run(context.Background(), job)
	if err != nil {
		t.Fatalf("reorder=%d: %v", reorder, err)
	}
	if out.Report == nil || !out.Report.OK() {
		t.Fatalf("reorder=%d: verification failed:\n%s", reorder, out.Report)
	}
	if len(out.Result.Witnesses) == 0 {
		t.Fatalf("reorder=%d: no recovery demonstrations extracted", reorder)
	}
	if costed && !out.Result.Costed {
		t.Fatalf("reorder=%d: costed job produced an uncosted result", reorder)
	}
	rep, err := json.Marshal(NewRunReport(job, out, name, n).Normalized())
	if err != nil {
		t.Fatal(err)
	}
	e := goldenEntry{Report: rep, Predicate: map[string]string{}}
	for i, buf := range canonicalExports(out) {
		sum := sha256.Sum256(buf)
		e.Predicate[predicateNames[i]] = hex.EncodeToString(sum[:])
	}
	return e
}

// goldenTitle names a goldenCases row the way the subtests and the golden
// file do: "<alg>/<case><n>", plus "/costed" for weighted runs.
func goldenTitle(name string, n int, alg Algorithm, costed bool) string {
	title := fmt.Sprintf("%s/%s%d", alg, name, n)
	if costed {
		title += "/costed"
	}
	return title
}

// loadGolden reads the committed golden entries.
func loadGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]goldenEntry{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// checkGolden compares one run's entry with the committed one for title;
// label prefixes every mismatch message.
func checkGolden(t *testing.T, want map[string]goldenEntry, title, label string, got goldenEntry) {
	t.Helper()
	w, ok := want[title]
	if !ok {
		t.Fatalf("no golden entry for %s (run TestGoldenResults with -update)", title)
	}
	var wantRep bytes.Buffer
	if err := json.Compact(&wantRep, w.Report); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Report, wantRep.Bytes()) {
		t.Errorf("%s: Normalized report differs from golden:\n  got:  %s\n  want: %s",
			label, got.Report, wantRep.Bytes())
	}
	for _, p := range predicateNames {
		if got.Predicate[p] != w.Predicate[p] {
			t.Errorf("%s: canonical export of %s differs from golden", label, p)
		}
	}
}

// TestGoldenResults pins the synthesized programs: on every instance of
// goldenCases, a repair+verify run (with witnesses) must reproduce the
// committed Normalized RunReport byte-for-byte and the committed digests of
// the canonical exports of trans, invariant and fault-span — once with the
// manager's default reorder cadence and once with sifting armed. The stress
// variables compose: REPRO_GC_STRESS=1 and REPRO_REORDER_STRESS=1 must leave
// every entry unchanged. -update rewrites the file from the default arm.
func TestGoldenResults(t *testing.T) {
	var want map[string]goldenEntry
	if !*updateGolden {
		want = loadGolden(t)
	}
	got := map[string]goldenEntry{}
	for _, tc := range goldenCases {
		if testing.Short() && !tc.short && !*updateGolden {
			continue
		}
		title := goldenTitle(tc.name, tc.n, tc.alg, tc.costed)
		t.Run(title, func(t *testing.T) {
			if *updateGolden {
				got[title] = goldenRun(t, tc.name, tc.n, tc.alg, tc.costed, 0, 0)
				return
			}
			for _, reorder := range []int64{0, 1 << 13} {
				e := goldenRun(t, tc.name, tc.n, tc.alg, tc.costed, reorder, 0)
				checkGolden(t, want, title, fmt.Sprintf("reorder=%d", reorder), e)
			}
		})
	}
	if *updateGolden {
		writeGolden(t, got)
	}
}

// TestWorkersDeterministic checks that the explicit worker selector callers
// may still pass — Options.Workers = 1, which the deprecated engine entry
// points accept as the serial engine — computes exactly the pinned results:
// on every goldenCases instance its Normalized report and canonical exports
// equal the golden entries that the default (Workers = 0) run reproduces.
func TestWorkersDeterministic(t *testing.T) {
	want := loadGolden(t)
	for _, tc := range goldenCases {
		if testing.Short() && !tc.short {
			continue
		}
		title := goldenTitle(tc.name, tc.n, tc.alg, tc.costed)
		t.Run(title, func(t *testing.T) {
			checkGolden(t, want, title, "workers=1", goldenRun(t, tc.name, tc.n, tc.alg, tc.costed, 0, 1))
		})
	}
}

// writeGolden writes the entries as a JSON object with one instance per
// line, so a changed result shows up as a one-line diff.
func writeGolden(t *testing.T, entries map[string]goldenEntry) {
	titles := make([]string, 0, len(entries))
	for title := range entries {
		titles = append(titles, title)
	}
	sort.Strings(titles)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, title := range titles {
		line, err := json.Marshal(entries[title])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%q: %s", title, line)
		if i < len(titles)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
