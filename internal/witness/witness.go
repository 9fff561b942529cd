// Package witness turns the symbolic engine's yes/no verdicts into concrete,
// replayable evidence. A Trace is a finite computation of the compiled
// program — a list of named-variable states joined by program or fault steps
// — that demonstrates a specific claim: a safety violation reachable under
// faults, a reachable deadlock with the fault schedule that exposes it, a
// livelock cycle outside the invariant, an unrealizable transition together
// with the read-restriction group member that betrays it, or (on success) a
// recovery demonstration that enters the fault-span via faults and converges
// back to the invariant.
//
// Traces are extracted from BDD fixpoints by frontier-stack path
// reconstruction (see Extractor) and re-checked by an independent
// explicit-state walker (see Certify), so every witness is a certificate
// rather than trust-me output. Extraction is deterministic: the same model
// and result yield byte-identical JSON, because every intermediate set is a
// canonical BDD and cube selection always follows the same branch order.
package witness

import (
	"fmt"
	"sort"
	"strings"
)

// StepKind labels how a trace reached a state.
type StepKind string

// The step kinds of a trace.
const (
	// StepInit marks the first state of a trace (no incoming transition).
	StepInit StepKind = "init"
	// StepProgram marks a program transition (By names the process, when
	// attribution succeeded).
	StepProgram StepKind = "program"
	// StepFault marks a fault transition (By names the fault action).
	StepFault StepKind = "fault"
)

// Step is one state of a trace plus the transition that produced it.
type Step struct {
	// Kind is init for the first step, program or fault afterwards.
	Kind StepKind `json:"kind"`
	// By attributes the transition: the process name for program steps, the
	// fault action name for fault steps. Empty when the model leaves the
	// action unnamed or the transition belongs to no single process (e.g. a
	// synthesized recovery transition shared by several groups).
	By string `json:"by,omitempty"`
	// State is the full named-variable assignment after the step.
	State map[string]int `json:"state"`
}

// Kind classifies what a trace demonstrates.
type Kind string

// The witness kinds.
const (
	// KindSafety is a computation from the invariant that, under faults,
	// reaches a bad state or executes a bad transition.
	KindSafety Kind = "safety-violation"
	// KindDeadlock is a computation reaching a state outside the invariant
	// with no outgoing program transition.
	KindDeadlock Kind = "deadlock"
	// KindLivelock is a computation reaching a cycle outside the invariant:
	// the final state revisits an earlier state of the trace.
	KindLivelock Kind = "livelock"
	// KindUnrealizable is an unrealizable transition (Move) with the group
	// member (Member) whose absence betrays it (Definition 19/20).
	KindUnrealizable Kind = "unrealizable"
	// KindRecovery is a successful demonstration: the trace leaves the
	// invariant via faults and converges back to it via program steps.
	KindRecovery Kind = "recovery"
)

// Move is one concrete transition, used by unrealizability witnesses.
type Move struct {
	From map[string]int `json:"from"`
	To   map[string]int `json:"to"`
}

// Trace is a concrete witness. It is JSON-serializable and deterministic:
// encoding/json sorts the state maps' keys, so two equal traces encode to
// identical bytes.
type Trace struct {
	// Kind classifies the demonstration.
	Kind Kind `json:"kind"`
	// Check names the verifier check this trace witnesses (empty for
	// recovery demonstrations produced on success).
	Check string `json:"check,omitempty"`
	// Detail is a one-line human-readable summary.
	Detail string `json:"detail,omitempty"`
	// Steps is the computation (empty for unrealizability witnesses, which
	// are about a single transition's group, not a path).
	Steps []Step `json:"steps,omitempty"`

	// Process, Move and Member are set for KindUnrealizable only: Move is a
	// transition of the program that Process cannot realize because Member —
	// a transition in the same read-restriction group — is absent.
	Process string `json:"process,omitempty"`
	Move    *Move  `json:"move,omitempty"`
	Member  *Move  `json:"member,omitempty"`
}

// Faults counts the fault steps of the trace.
func (t *Trace) Faults() int {
	n := 0
	for _, s := range t.Steps {
		if s.Kind == StepFault {
			n++
		}
	}
	return n
}

// String renders the trace for terminals (the ftrepair -explain format):
// one line per step, showing only the variables that changed.
func (t *Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s", t.Kind)
	if t.Check != "" {
		fmt.Fprintf(&sb, " [%s]", t.Check)
	}
	if t.Detail != "" {
		fmt.Fprintf(&sb, ": %s", t.Detail)
	}
	sb.WriteString("\n")
	if t.Move != nil {
		fmt.Fprintf(&sb, "  transition %s -> %s (process %s)\n",
			formatState(t.Move.From), formatState(t.Move.To), t.Process)
		if t.Member != nil {
			fmt.Fprintf(&sb, "  missing group member %s -> %s\n",
				formatState(t.Member.From), formatState(t.Member.To))
		}
	}
	var prev map[string]int
	for i, s := range t.Steps {
		switch s.Kind {
		case StepInit:
			fmt.Fprintf(&sb, "  %2d  init     %s\n", i, formatState(s.State))
		default:
			label := string(s.Kind)
			if s.By != "" {
				label += ":" + s.By
			}
			fmt.Fprintf(&sb, "  %2d  %-8s %s\n", i, label, formatDiff(prev, s.State))
		}
		prev = s.State
	}
	return sb.String()
}

// formatState renders a full assignment with sorted variable names.
func formatState(state map[string]int) string {
	names := make([]string, 0, len(state))
	for n := range state {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, state[n])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// formatDiff renders only the variables that changed from prev.
func formatDiff(prev, state map[string]int) string {
	if prev == nil {
		return formatState(state)
	}
	names := make([]string, 0, len(state))
	for n, v := range state {
		if prev[n] != v {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return "(stutter)"
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s: %d->%d", n, prev[n], state[n])
	}
	return strings.Join(parts, "  ")
}

// cloneState copies a state map.
func cloneState(s map[string]int) map[string]int {
	out := make(map[string]int, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}
