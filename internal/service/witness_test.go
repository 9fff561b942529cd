package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// TestSpecWitnessValidationAndKey: out-of-range witness requests are
// rejected, and the witness count is part of the content address — a report
// with embedded demonstrations must never be served to a client that asked
// for none (and vice versa).
func TestSpecWitnessValidationAndKey(t *testing.T) {
	for _, bad := range []int{-1, MaxWitnesses + 1} {
		sp := Spec{Case: "ba", N: 3, Witnesses: bad}
		if _, _, _, err := sp.resolve(); err == nil {
			t.Errorf("witnesses=%d resolved without error", bad)
		}
	}
	key := func(w int) string {
		sp := Spec{Case: "ba", N: 3, Witnesses: w}
		_, _, k, err := sp.resolve()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if key(0) == key(2) || key(2) == key(3) {
		t.Fatal("witness count not folded into the content address")
	}
	if key(2) != key(2) {
		t.Fatal("content address not deterministic")
	}
}

// TestJobEmbedsCertifiedWitnesses submits a job asking for demonstrations
// and checks the finished report carries them, with the per-phase witness
// timing recorded and surfaced through the metrics counters.
func TestJobEmbedsCertifiedWitnesses(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Close()
	v, err := s.Submit(Spec{Case: "sc", N: 4, Witnesses: 3})
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(context.Background(), v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("job did not finish: state=%s err=%q", final.State, final.Error)
	}
	if len(final.Result.Witnesses) == 0 {
		t.Fatal("report embeds no recovery demonstrations")
	}
	if len(final.Result.Witnesses) > 3 {
		t.Fatalf("report embeds %d demonstrations, asked for 3", len(final.Result.Witnesses))
	}
	for i, tr := range final.Result.Witnesses {
		if len(tr.Steps) == 0 || tr.Faults() == 0 {
			t.Errorf("demonstration %d is degenerate: %+v", i, tr)
		}
	}
	if final.Result.WitnessNS <= 0 {
		t.Fatal("witness extraction time not recorded")
	}
	if m := s.Metrics(); m["witness_ns"] <= 0 {
		t.Fatalf("witness time missing from metrics: %+v", m)
	}

	// A job that asks for no witnesses must not be served the cached
	// witness-bearing report.
	v2, err := s.Submit(Spec{Case: "sc", N: 4})
	if err != nil {
		t.Fatal(err)
	}
	final2, err := s.Wait(context.Background(), v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final2.Result == nil || len(final2.Result.Witnesses) != 0 {
		t.Fatalf("witness-free job served a witness-bearing report")
	}
}

// TestMetricsJSONEndpoint checks /metrics.json serves the structured
// snapshot alongside the Prometheus text exposition at /metrics, and that
// after a synthesis every ftrepaird_* sample equals the JSON field the
// metrics table pairs it with.
func TestMetricsJSONEndpoint(t *testing.T) {
	base, s, shutdown := bootDaemon(t, Config{Workers: 1, QueueDepth: 4})
	defer shutdown()

	v, err := s.Submit(Spec{Case: "ba", N: 2, Witnesses: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), v.ID); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics.json = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap["submitted"] < 1 || snap["completed"] < 1 || snap["workers"] != 1 {
		t.Fatalf("snapshot inconsistent: %+v", snap)
	}
	if snap["witness_ns"] <= 0 || snap["compile_ns"] <= 0 || snap["fix_images"] <= 0 {
		t.Fatalf("run telemetry missing from snapshot: %+v", snap)
	}

	resp2, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	text, _ := io.ReadAll(resp2.Body)
	samples := map[string]float64{}
	for _, line := range splitLines(string(text)) {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "ftrepaird_") {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		samples[name] = f
	}
	if len(samples) != len(metricTable) || len(snap) != len(metricTable) {
		t.Fatalf("%d samples and %d JSON keys for %d table rows", len(samples), len(snap), len(metricTable))
	}
	for _, m := range metricTable {
		got, ok := samples[m.name]
		if !ok {
			t.Errorf("Prometheus exposition misses %s", m.name)
			continue
		}
		if want, ok := snap[m.key]; !ok || got != want {
			t.Errorf("%s = %v, but /metrics.json %s = %v (present %t)", m.name, got, m.key, want, ok)
		}
	}
}

func containsLine(body, name string) bool {
	for _, line := range splitLines(body) {
		if len(line) >= len(name) && line[:len(name)] == name {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
