package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// expected.json holds the reachable, invariant and fault-span state counts
// of every job family the workloads generate. The entries of models with at
// most 2^12 encoded states are cross-checked against the explicit-state
// oracle by TestExpectedMatchesExplicit; `go test -run TestExpected -update`
// regenerates the file from the symbolic pipeline.
//
//go:embed expected.json
var expectedJSON []byte

func loadExpected() (map[string]counts, error) {
	var exp map[string]counts
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return exp, nil
}

// check returns the reasons a finished job counts as failed: an error or a
// refusal, a failed verifier check, or a state count that differs from the
// committed expectation for its family.
func check(o outcome, exp map[string]counts) []string {
	if o.err != "" {
		return []string{fmt.Sprintf("%s: %s", o.in.id, o.err)}
	}
	var bad []string
	if !o.verified {
		bad = append(bad, fmt.Sprintf("%s: verifier failed %v", o.in.id, o.failures))
	} else if len(o.failures) > 0 {
		bad = append(bad, fmt.Sprintf("%s: %v", o.in.id, o.failures))
	}
	want, ok := exp[o.in.family]
	switch {
	case !ok:
		bad = append(bad, fmt.Sprintf("%s: no expected counts for family %q", o.in.id, o.in.family))
	case o.counts != want:
		bad = append(bad, fmt.Sprintf("%s: counts %+v, expected %+v", o.in.id, o.counts, want))
	}
	return bad
}
