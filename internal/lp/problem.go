// Package lp implements a bounded-variable simplex solver for linear
// programs
//
//	minimize    c'x
//	subject to  a_i'x {<=,>=,=} b_i   for every constraint i
//	            lo <= x <= hi         (hi may be +Inf)
//
// It is the mathematical-programming substrate that stands in for the
// LINDO package used in Sutanthavibul, Shragowitz and Rosen (DAC 1990):
// the floorplanning subproblems of the paper are built as lp.Problem
// instances and the 0-1 variables are handled by the branch-and-bound
// layer in package milp.
//
// There is one engine: a sparse revised dual simplex (CSC constraint
// matrix, LU-factorized basis with product-form eta updates,
// BTRAN/FTRAN pricing) with bounded variables. It starts from a
// dual-feasible rest of every nonbasic column on one of its bounds; when
// some column's cost favours a bound that is infinite, a dual phase 1
// first finds a dual-feasible basis or proves the problem unbounded or
// infeasible. Incremental exposes it warm-started across bound changes,
// and Problem.Solve is a fresh Incremental solved once. All variables
// must have a finite lower bound, which every floorplanning variable
// naturally has (coordinates and heights are non-negative, binaries live
// in [0,1]). The package tests keep a dense two-phase tableau simplex as
// the differential oracle.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"afp/internal/obs"
)

// VarID identifies a variable of a Problem.
type VarID int

// ConID identifies a constraint of a Problem.
type ConID int

// Op is a constraint relation.
type Op int

// Constraint relations.
const (
	LE Op = iota // a'x <= b
	GE           // a'x >= b
	EQ           // a'x == b
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "=="
	}
}

// Term is one coefficient of a linear expression.
type Term struct {
	Var  VarID
	Coef float64
}

// Problem is a linear program under construction. The zero value is an
// empty minimization problem ready for use.
type Problem struct {
	names []string
	lo    []float64
	hi    []float64
	obj   []float64

	conNames []string
	rows     [][]Term
	ops      []Op
	rhs      []float64

	maximize bool

	// comp caches the sparse (CSC+CSR) form of the constraint matrix;
	// version is bumped by every structural edit and compVersion records
	// the version comp was built at. Clones share the immutable comp.
	comp        *compiled
	compVersion uint64
	version     uint64
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// SetMaximize switches the objective sense to maximization (the default is
// minimization).
func (p *Problem) SetMaximize(max bool) { p.maximize = max }

// Maximizing reports the current objective sense.
func (p *Problem) Maximizing() bool { return p.maximize }

// AddVariable adds a variable with bounds [lo, hi] and objective
// coefficient cost, returning its identifier. lo must be finite; hi may be
// math.Inf(1).
func (p *Problem) AddVariable(name string, lo, hi, cost float64) VarID {
	if math.IsInf(lo, 0) || math.IsNaN(lo) {
		panic(fmt.Sprintf("lp: variable %q requires a finite lower bound, got %v", name, lo))
	}
	if hi < lo {
		panic(fmt.Sprintf("lp: variable %q has empty bound range [%v, %v]", name, lo, hi))
	}
	p.names = append(p.names, name)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.obj = append(p.obj, cost)
	p.version++
	return VarID(len(p.names) - 1)
}

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.names) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// VarName returns the name of variable v.
func (p *Problem) VarName(v VarID) string { return p.names[v] }

// Bounds returns the bounds of variable v.
func (p *Problem) Bounds(v VarID) (lo, hi float64) { return p.lo[v], p.hi[v] }

// SetBounds replaces the bounds of variable v. It is used by the
// branch-and-bound layer to fix binaries along a branch.
func (p *Problem) SetBounds(v VarID, lo, hi float64) {
	if math.IsInf(lo, 0) || math.IsNaN(lo) || hi < lo {
		panic(fmt.Sprintf("lp: invalid bounds [%v, %v] for %q", lo, hi, p.names[v]))
	}
	p.lo[v] = lo
	p.hi[v] = hi
}

// SetObjectiveCoef replaces the objective coefficient of variable v.
func (p *Problem) SetObjectiveCoef(v VarID, cost float64) { p.obj[v] = cost }

// ObjectiveCoef returns the objective coefficient of variable v.
func (p *Problem) ObjectiveCoef(v VarID) float64 { return p.obj[v] }

// AddConstraint adds the constraint sum(terms) op rhs and returns its
// identifier. Terms mentioning the same variable are accumulated.
func (p *Problem) AddConstraint(name string, terms []Term, op Op, rhs float64) ConID {
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(p.names) {
			panic(fmt.Sprintf("lp: constraint %q references unknown variable %d", name, t.Var))
		}
	}
	own := make([]Term, len(terms))
	copy(own, terms)
	p.conNames = append(p.conNames, name)
	p.rows = append(p.rows, own)
	p.ops = append(p.ops, op)
	p.rhs = append(p.rhs, rhs)
	p.version++
	return ConID(len(p.rows) - 1)
}

// Constraint returns the name, terms, relation and right-hand side of
// constraint c. The terms slice is a copy; mutating it does not affect
// the problem.
func (p *Problem) Constraint(c ConID) (name string, terms []Term, op Op, rhs float64) {
	return p.conNames[c], append([]Term(nil), p.rows[c]...), p.ops[c], p.rhs[c]
}

// SetConstraint replaces the terms, relation and right-hand side of an
// existing constraint, keeping its name. The model auditor's tests use
// it to corrupt well-formed models in controlled ways.
func (p *Problem) SetConstraint(c ConID, terms []Term, op Op, rhs float64) {
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(p.names) {
			panic(fmt.Sprintf("lp: constraint %q references unknown variable %d", p.conNames[c], t.Var))
		}
	}
	p.rows[c] = append([]Term(nil), terms...)
	p.ops[c] = op
	p.rhs[c] = rhs
	p.version++
}

// Clone returns a deep copy of the problem. The milp presolve clones the
// relaxation before tightening its bounds.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		names:    append([]string(nil), p.names...),
		lo:       append([]float64(nil), p.lo...),
		hi:       append([]float64(nil), p.hi...),
		obj:      append([]float64(nil), p.obj...),
		conNames: append([]string(nil), p.conNames...),
		ops:      append([]Op(nil), p.ops...),
		rhs:      append([]float64(nil), p.rhs...),
		maximize: p.maximize,

		// The compiled matrix is immutable, so the clone shares it until
		// either side makes a structural edit (which bumps version and
		// recompiles lazily on that side only).
		comp:        p.comp,
		compVersion: p.compVersion,
		version:     p.version,
	}
	q.rows = make([][]Term, len(p.rows))
	for i, r := range p.rows {
		q.rows[i] = append([]Term(nil), r...)
	}
	return q
}

// Infeasibilities evaluates every constraint and variable bound at the
// point x (one value per variable, in AddVariable order) and returns a
// human-readable description of each violation exceeding tol. It returns
// nil when x is feasible within tol. Property tests use it to check that
// candidate assignments (e.g. branch-and-bound warm-start hints) satisfy
// the model they are offered to.
func (p *Problem) Infeasibilities(x []float64, tol float64) []string {
	var out []string
	if len(x) != len(p.names) {
		return []string{fmt.Sprintf("lp: point has %d values for %d variables", len(x), len(p.names))}
	}
	for v, xv := range x {
		if xv < p.lo[v]-tol {
			out = append(out, fmt.Sprintf("%s = %.9g below lower bound %.9g", p.names[v], xv, p.lo[v]))
		}
		if xv > p.hi[v]+tol {
			out = append(out, fmt.Sprintf("%s = %.9g above upper bound %.9g", p.names[v], xv, p.hi[v]))
		}
	}
	for i, row := range p.rows {
		var lhs float64
		for _, t := range row {
			lhs += t.Coef * x[t.Var]
		}
		viol := 0.0
		switch p.ops[i] {
		case LE:
			viol = lhs - p.rhs[i]
		case GE:
			viol = p.rhs[i] - lhs
		default:
			viol = math.Abs(lhs - p.rhs[i])
		}
		if viol > tol {
			out = append(out, fmt.Sprintf("%s: %.9g %s %.9g violated by %.3g",
				p.conNames[i], lhs, p.ops[i], p.rhs[i], viol))
		}
	}
	return out
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	StatusOptimal Status = iota
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	default:
		return "iteration-limit"
	}
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status     Status
	Objective  float64   // in the problem's original sense
	X          []float64 // one value per variable, in AddVariable order
	Iterations int       // simplex pivots performed (both phases)

	// Phase1Iterations is the share of Iterations spent in the dual
	// phase 1, which runs only when some column's reduced cost favours an
	// infinite bound.
	Phase1Iterations int
	// DegeneratePivots counts pivots with zero step length.
	DegeneratePivots int
	// DualPivots counts dual simplex pivots: all of Iterations.
	DualPivots int
	// Refactorizations counts basis LU refactorizations performed during
	// this solve (not the factorization of the slack basis that
	// NewIncremental starts from).
	Refactorizations int

	// Duals holds one dual value per constraint (in AddConstraint order)
	// and ReducedCosts one reduced cost per variable, both in the
	// problem's own objective sense and populated only at StatusOptimal.
	// They satisfy strong duality with variable bounds:
	//
	//	Objective == sum_i Duals[i]*rhs_i + sum_j ReducedCosts[j]*X[j]
	//
	// and complementary slackness: a nonzero dual implies a tight row, a
	// nonzero reduced cost implies the variable rests on a bound.
	Duals        []float64
	ReducedCosts []float64
}

// Value returns the solution value of variable v.
func (s *Solution) Value(v VarID) float64 { return s.X[v] }

// Options tunes the solver.
type Options struct {
	// MaxIter bounds the total number of simplex pivots of one solve
	// (phase 1 included). Zero means the default of 50000.
	MaxIter int
	// Obs receives one lp.solve event per solve with iteration, pivot and
	// timing telemetry. Nil (the default) disables instrumentation at no
	// cost.
	Obs *obs.Observer
}

// ErrBadModel is returned for structurally invalid problems (no variables).
var ErrBadModel = errors.New("lp: problem has no variables")

// Solve solves the problem with default options.
func (p *Problem) Solve() (*Solution, error) { return p.SolveOpts(Options{}) }

// SolveOpts solves the problem with the given options. The Problem itself
// is not modified.
func (p *Problem) SolveOpts(opt Options) (*Solution, error) {
	//vet:allow ctxsolve -- context-free convenience bridge to SolveCtx
	return p.SolveCtx(context.Background(), opt)
}

// SolveCtx is SolveOpts under a context: the simplex loop polls
// ctx.Done() every few pivots and aborts with ctx.Err() when the context
// is cancelled or its deadline passes. A context without a Done channel
// (context.Background()) costs nothing on the pivot path. It is
// NewIncremental plus one solve; the compiled constraint matrix is
// cached on p so that repeated solves share it.
func (p *Problem) SolveCtx(ctx context.Context, opt Options) (*Solution, error) {
	p.Compile()
	inc, err := NewIncremental(p, opt)
	if err != nil {
		return nil, err
	}
	return inc.SolveCtx(ctx)
}

// Residual returns the violation of constraint i at point x (positive
// means violated), useful for verification in tests.
func (p *Problem) Residual(i ConID, x []float64) float64 {
	var lhs float64
	for _, t := range p.rows[i] {
		lhs += t.Coef * x[t.Var]
	}
	switch p.ops[i] {
	case LE:
		return lhs - p.rhs[i]
	case GE:
		return p.rhs[i] - lhs
	default:
		return math.Abs(lhs - p.rhs[i])
	}
}

// MaxViolation returns the largest constraint or bound violation of x.
func (p *Problem) MaxViolation(x []float64) float64 {
	var worst float64
	for i := range p.rows {
		if r := p.Residual(ConID(i), x); r > worst {
			worst = r
		}
	}
	for j := range p.lo {
		if d := p.lo[j] - x[j]; d > worst {
			worst = d
		}
		if d := x[j] - p.hi[j]; d > worst {
			worst = d
		}
	}
	return worst
}

// String summarizes the problem dimensions.
func (p *Problem) String() string {
	return fmt.Sprintf("lp.Problem{vars: %d, cons: %d, maximize: %v}",
		len(p.names), len(p.rows), p.maximize)
}
