package engine

import (
	"context"

	"d2cq/internal/cq"
	"d2cq/internal/decomp"
)

// defaultEngine backs the free evaluation functions. It is shared so that
// repeated ad-hoc calls still benefit from the decomposition cache.
var defaultEngine = NewEngine()

// Default returns the process-wide engine behind the free functions.
func Default() *Engine { return defaultEngine }

// preparedFor compiles q with the default engine, or against the explicitly
// supplied decomposition when opts carries one.
func preparedFor(q cq.Query, opts *EvalOptions) (*PreparedQuery, error) {
	if opts != nil && opts.Decomp != nil {
		p, err := NewPlan(q, opts.Decomp)
		if err != nil {
			return nil, err
		}
		return &PreparedQuery{eng: defaultEngine, plan: p}, nil
	}
	return defaultEngine.Prepare(context.Background(), q)
}

// EvalOptions selects a decomposition strategy for the free functions.
type EvalOptions struct {
	// Decomp supplies a decomposition; if nil, one is computed
	// (join tree when acyclic, hypertree decomposition otherwise).
	Decomp *decomp.GHD
}

// BCQ decides whether q has a solution over db, using a decomposition-based
// evaluation (Proposition 2.2: polynomial for bounded ghw).
//
// Deprecated: for repeated evaluation, prepare the query once with
// Engine.Prepare and call PreparedQuery.Bool.
func BCQ(q cq.Query, db cq.Database, opts *EvalOptions) (bool, error) {
	p, err := preparedFor(q, opts)
	if err != nil {
		return false, err
	}
	return p.Bool(context.Background(), db)
}

// Count computes |q(D)| for the full CQ q over db (Proposition 4.14:
// polynomial for bounded ghw).
//
// Deprecated: for repeated evaluation, prepare the query once with
// Engine.Prepare and call PreparedQuery.Count.
func Count(q cq.Query, db cq.Database, opts *EvalOptions) (int64, error) {
	p, err := preparedFor(q, opts)
	if err != nil {
		return 0, err
	}
	return p.Count(context.Background(), db)
}
