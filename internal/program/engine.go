package program

import (
	"context"
	"fmt"

	"repro/internal/bdd"
)

// Engine runs the reachability fixpoints of one job on a compiled program's
// manager. It is serial: BDD managers are single-threaded, and parallelism
// lives at job level (the daemon's worker pool runs one engine per job).
type Engine struct {
	// C is the compiled program; all results live in its manager.
	C *Compiled

	// fix accumulates the fixpoint scheduler's work counters (fixpoint.go)
	// across the engine's lifetime.
	fix FixpointStats
}

// NewEngine wraps c as an engine.
func NewEngine(c *Compiled) *Engine { return &Engine{C: c} }

// Mode names an engine mode of the removed multi-worker engines.
//
// Deprecated: the engine is serial; the only accepted Mode is "".
type Mode string

// NewEngineMode is NewEngine behind the removed engine selectors. It accepts
// only the serial values — mode "" and workers 0 or 1 — and returns an error
// for anything else. Callers that still carry the deprecated
// repair.Options.Mode/Workers fields build their engine here so that a
// non-serial request fails instead of running serially unnoticed.
//
// Deprecated: use NewEngine.
func NewEngineMode(c *Compiled, mode Mode, workers int) (*Engine, error) {
	if mode != "" {
		return nil, fmt.Errorf("program: engine mode %q is not supported: the engine is serial (mode must be empty)", mode)
	}
	if workers < 0 || workers > 1 {
		return nil, fmt.Errorf("program: %d engine workers is not supported: the engine is serial (workers must be 0 or 1)", workers)
	}
	return NewEngine(c), nil
}

// Mode returns the empty Mode.
//
// Deprecated: the engine is serial.
func (e *Engine) Mode() Mode { return "" }

// Workers returns 1.
//
// Deprecated: the engine is serial.
func (e *Engine) Workers() int { return 1 }

// ReachableParts computes the forward reachability fixpoint of init under the
// partitioned transition relation, via the frontier-chained scheduler
// (fixpoint.go): frontier-only images with saturation-style firing.
func (e *Engine) ReachableParts(ctx context.Context, init bdd.Node, parts []bdd.Node) (bdd.Node, error) {
	return e.fixpoint(ctx, init, parts, false)
}

// BackwardReachableParts is the backward (preimage) counterpart of
// ReachableParts.
func (e *Engine) BackwardReachableParts(ctx context.Context, target bdd.Node, parts []bdd.Node) (bdd.Node, error) {
	return e.fixpoint(ctx, target, parts, true)
}
