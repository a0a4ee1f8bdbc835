// Package milp solves 0-1 and general mixed integer linear programs by
// LP-based branch and bound on top of package lp. Together the two
// packages replace the LINDO solver used in Sutanthavibul, Shragowitz and
// Rosen (DAC 1990): the floorplanning subproblems of the paper are MILPs
// with a few hundred continuous variables and up to a few hundred 0-1
// variables, which this solver handles to proven optimality at the
// subproblem sizes (10-12 modules) the paper recommends.
package milp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"afp/internal/lp"
	"afp/internal/obs"
)

// intTol is the integrality tolerance: a value within intTol of an integer
// is considered integral.
const intTol = 1e-6

// Model couples an LP relaxation with the set of integrality constraints.
type Model struct {
	P    *lp.Problem
	Ints []lp.VarID // variables required to take integer values
}

// NewModel returns a model over problem p with no integer variables yet.
func NewModel(p *lp.Problem) *Model { return &Model{P: p} }

// AddBinary declares a new binary variable on the underlying problem and
// registers it as integer.
func (m *Model) AddBinary(name string, cost float64) lp.VarID {
	v := m.P.AddVariable(name, 0, 1, cost)
	m.Ints = append(m.Ints, v)
	return v
}

// MarkInteger registers an existing variable as integer-constrained.
func (m *Model) MarkInteger(v lp.VarID) { m.Ints = append(m.Ints, v) }

// Branching selects the variable-selection rule of the search.
type Branching int

// Branching rules.
const (
	// MostFractional branches on the integer variable whose LP value is
	// closest to 0.5 away from an integer.
	MostFractional Branching = iota
	// PseudoCost branches on the variable with the best observed objective
	// degradation history, falling back to MostFractional until history
	// accumulates.
	PseudoCost
)

// Options tunes the branch-and-bound search.
type Options struct {
	// MaxNodes bounds the number of explored nodes; 0 means 200000.
	MaxNodes int
	// TimeLimit stops the search after the given duration; 0 means none.
	TimeLimit time.Duration
	// AbsGap terminates when bestBound >= incumbent - AbsGap. Defaults to 1e-6.
	AbsGap float64
	// Workers sets the number of branch-and-bound worker goroutines; 0
	// (the default) means runtime.GOMAXPROCS(0). Every worker runs the
	// same depth-first search over one shared pool of open nodes (see
	// search.go). Workers: 1 is deterministic: the same model and options
	// give the same nodes, pivots and incumbent on every run. At Workers
	// > 1 the search proves the same optimum and bound, but may return a
	// different optimal assignment when several exist, and Nodes/LPIters
	// vary run to run.
	Workers int
	// Branching selects the branching rule.
	Branching Branching
	// Presolve runs interval-arithmetic bound propagation
	// (lp.PropagateBounds) on a private clone of the problem before the
	// search, tightening root bounds and fixing implied integers. The
	// feasible set and optimum are unchanged; the caller's Problem is not
	// modified. One presolve.done event reports the reductions when Obs is
	// set.
	Presolve bool
	// Incumbent optionally provides a full variable assignment known (or
	// hoped) to be feasible; integer variables are fixed to its (rounded)
	// values and the continuous part is re-optimized to seed the search
	// with an upper bound.
	Incumbent []float64
	// LP tunes the relaxation solver.
	LP lp.Options
	// RootRounding enables a cheap dive heuristic at the root: round the
	// relaxation's integer values and re-solve the continuous part.
	RootRounding bool
	// External optionally supplies an externally-proven feasible objective
	// value (in the problem's original sense) together with a label naming
	// its producer, e.g. "portfolio:anneal". The search polls it at node
	// boundaries and prunes any subtree whose LP bound cannot beat the
	// external value, exactly as it prunes against its own incumbent; the
	// hook must be safe for concurrent use (parallel workers poll it under
	// the pool lock) and should be a cheap mutex-guarded read. When the
	// search exhausts without an internal incumbent at least as good as
	// the external objective, the result is StatusDominated: nothing in
	// this model beats the external solution (within AbsGap), and
	// Result.IncumbentSource carries the external label.
	External func() (obj float64, source string, ok bool)
	// Obs receives branch-and-bound telemetry: node open/close/prune
	// events, incumbent updates, periodic progress probes and a final
	// search summary. Nil (the default) disables instrumentation at no
	// cost. To also trace every node's LP solve, set Obs on the LP
	// options as well.
	Obs *obs.Observer
	// ProgressEvery emits an obs progress probe every that many explored
	// nodes; 0 means 512. Ignored without Obs.
	ProgressEvery int
}

// Status reports the outcome of a MILP solve.
type Status int

// Solve outcomes.
const (
	StatusOptimal    Status = iota // incumbent proven optimal (within AbsGap)
	StatusFeasible                 // incumbent found, limit hit before proof
	StatusInfeasible               // no integer-feasible point exists
	StatusUnbounded                // relaxation unbounded
	StatusLimit                    // limit hit with no incumbent
	// StatusDominated: the search exhausted under an Options.External
	// cutoff without beating it — the external solution is proven at
	// least as good as anything in this model (within AbsGap).
	StatusDominated
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusDominated:
		return "dominated"
	default:
		return "limit"
	}
}

// Result is the outcome of a branch-and-bound search.
type Result struct {
	Status    Status
	Objective float64   // objective of the incumbent in the original sense
	X         []float64 // incumbent assignment (valid unless StatusLimit/Infeasible)
	Nodes     int       // branch-and-bound nodes explored
	LPIters   int       // total simplex iterations across all node solves
	BestBound float64   // proven bound on the optimum (original sense)
	// DualPivots and Refactorizations break down the LP effort: dual
	// pivots across node solves (every node re-solve warm-starts from the
	// worker's last basis and typically needs a handful; the root pays the
	// full count from the slack basis) and how often the LU factorization
	// was rebuilt (eta file full, numerical trouble, or a cloned worker
	// basis coming online).
	DualPivots       int
	Refactorizations int
	// IncumbentSource names who owns the best known solution: "bb" when
	// the search (or its hint) produced X, or the Options.External label
	// (e.g. "portfolio:anneal") on StatusDominated results. Empty when no
	// incumbent is known at all.
	IncumbentSource string
}

// Gap returns the relative MIP gap |Objective - BestBound| /
// max(1e-10, |Objective|). Without an incumbent, or without a finite
// proven bound, the gap is +Inf: the division is never evaluated when no
// feasible solution was found, so a zero Objective placeholder cannot
// manufacture a huge but meaningless percentage. An incumbent whose
// objective matches its bound within 1e-12 reports exactly zero, which
// keeps proven-optimal solves with a zero objective out of the same trap.
func (r *Result) Gap() float64 {
	if r.X == nil || math.IsInf(r.BestBound, 0) || math.IsNaN(r.BestBound) {
		return math.Inf(1)
	}
	diff := math.Abs(r.Objective - r.BestBound)
	if diff <= 1e-12 {
		return 0
	}
	return diff / math.Max(1e-10, math.Abs(r.Objective))
}

// String is a one-line solve summary: status, incumbent objective,
// proven bound, relative gap and search effort. Without an incumbent the
// objective and gap are omitted (only the proven bound is shown, when
// one exists).
func (r *Result) String() string {
	if r.X == nil {
		if !math.IsInf(r.BestBound, 0) && !math.IsNaN(r.BestBound) {
			return fmt.Sprintf("status: %s bound: %g nodes: %d lp-iters: %d",
				r.Status, r.BestBound, r.Nodes, r.LPIters)
		}
		return fmt.Sprintf("status: %s nodes: %d lp-iters: %d", r.Status, r.Nodes, r.LPIters)
	}
	gap := "inf"
	if g := r.Gap(); !math.IsInf(g, 0) {
		gap = fmt.Sprintf("%.4g%%", 100*g)
	}
	return fmt.Sprintf("status: %s objective: %g bound: %g gap: %s nodes: %d lp-iters: %d",
		r.Status, r.Objective, r.BestBound, gap, r.Nodes, r.LPIters)
}

// Solve runs branch and bound and returns the result. The model's Problem
// is not modified.
func Solve(m *Model, opt Options) *Result {
	return SolveCtx(context.Background(), m, opt)
}

// SolveCtx is Solve under a context. Cancellation (or a context
// deadline) stops the search at the next node boundary — and, inside a
// node, aborts the running LP solve within a few pivots — returning the
// best incumbent found so far with StatusFeasible, or StatusLimit when
// none exists. The proven bound and Gap remain meaningful on such
// partial results, which is what deadline-bounded service solves report.
func SolveCtx(ctx context.Context, m *Model, opt Options) *Result {
	if opt.MaxNodes <= 0 {
		opt.MaxNodes = 200000
	}
	if opt.AbsGap <= 0 {
		opt.AbsGap = 1e-6
	}
	if opt.ProgressEvery <= 0 {
		opt.ProgressEvery = 512
	}
	if opt.Presolve {
		q := m.P.Clone()
		var tightened, fixed int
		opt.Obs.Do(ctx, "presolve", obs.SpanAttrs{Detail: "propagate"}, func(context.Context) {
			tightened, fixed = q.PropagateBounds(m.Ints, 0)
		})
		if opt.Obs.Enabled() {
			opt.Obs.Emit(obs.Event{
				Kind: obs.KindPresolve, Detail: "propagate",
				Tightened: tightened, Fixed: fixed,
			})
		}
		m = &Model{P: q, Ints: m.Ints}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(m.Ints) == 0 {
		// A pure LP is a single node: extra workers would only clone it.
		workers = 1
	}
	var res *Result
	opt.Obs.Do(ctx, "bb", obs.SpanAttrs{Worker: workers}, func(ctx context.Context) {
		res = search(ctx, m, opt, workers)
	})
	return res
}
