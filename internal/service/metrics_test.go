package service

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sat"
)

// TestMetricsAddRunConcurrent folds runs from several workers at once and
// checks each fold: counters sum, peak gauges keep the maximum, and the
// last-run gauge holds one of the folded values.
func TestMetricsAddRunConcurrent(t *testing.T) {
	m := newMetrics()
	const runs = 64
	var wg sync.WaitGroup
	for i := 1; i <= runs; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			m.addRun(&core.Telemetry{CompileNS: i, BDDPeakNodes: i, BDDNodesLive: i, SAT: &sat.Stats{MaxLevel: i}})
		}(int64(i))
	}
	wg.Wait()
	if got := m.get(&m.synthRuns); got != runs {
		t.Errorf("synthRuns = %d, want %d", got, runs)
	}
	want := map[string]int64{"compile_ns": runs * (runs + 1) / 2, "bdd_peak_nodes": runs, "sat_max_decision_level": runs, "fix_images": 0}
	for i, row := range metricTable {
		got := m.runs[i].Load()
		if w, ok := want[row.key]; ok && got != w {
			t.Errorf("%s = %d, want %d", row.key, got, w)
		}
		if row.key == "bdd_live_nodes" && (got < 1 || got > runs) {
			t.Errorf("bdd_live_nodes = %d, want one run's value", got)
		}
	}
}
