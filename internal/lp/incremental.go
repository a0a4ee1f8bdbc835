package lp

import (
	"context"
	"fmt"
	"math"
	"time"

	"afp/internal/obs"
)

// Incremental is the LP solver: the sparse revised dual simplex core
// behind a warm-startable interface. It keeps the basis factorization
// alive between solves so that after variable bound changes — the only
// modification branch and bound ever makes — a handful of dual simplex
// pivots repair the previous optimal basis, instead of a full cold
// solve per node. Problem.Solve is a fresh Incremental solved once.
//
// A bound change keeps the basis dual feasible unless it removes the
// finite bound that a column's favourable reduced cost rests on; the
// next solve then runs the dual phase 1 first (see spxCore.phase1), as
// does a first solve in which some column's cost favours an infinite
// bound.
//
// All working storage (LU factors, eta file, pivot scratch, the
// returned Solution and its X vector) is preallocated, so a steady-state
// SetBounds+SolveCtxReuse cycle on a problem that needs no phase 1
// performs zero heap allocations.
type Incremental struct {
	core    *spxCore
	o       *obs.Observer
	maxIter int
	solves  int

	// sol and xbuf are reused across SolveCtxReuse calls.
	sol  Solution
	xbuf []float64

	// dirty lists the structural columns whose bounds changed since the
	// last solve; refreshDirty re-rests exactly those.
	dirty     []int32
	dirtyMark []bool
}

// NewIncremental builds a solver over a snapshot of p's constraints and
// current bounds. Later bound changes are applied through SetBounds, not
// through p. It never writes to p, so concurrent calls on one Problem are
// safe: a stale compiled matrix is rebuilt privately rather than cached.
func NewIncremental(p *Problem, opt Options) (*Incremental, error) {
	if len(p.names) == 0 {
		return nil, ErrBadModel
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = defaultMaxIter
	}
	a := p.comp
	if a == nil || p.compVersion != p.version {
		a = buildCompiled(p)
	}
	n := a.n
	return &Incremental{
		core: newSpxCore(p, a), o: opt.Obs, maxIter: maxIter,
		xbuf:      make([]float64, n),
		dirty:     make([]int32, 0, n),
		dirtyMark: make([]bool, n),
	}, nil
}

// SetBounds changes the bounds of structural variable v. The change is
// recorded on a dirty list and applied at the next solve; unchanged
// bounds are skipped so branch-and-bound's habit of rewriting every
// integer box per node costs nothing for the untouched ones.
func (inc *Incremental) SetBounds(v VarID, lo, hi float64) {
	j := int(v)
	if math.IsInf(lo, 0) || hi < lo {
		panic(fmt.Sprintf("lp: invalid incremental bounds [%v, %v]", lo, hi))
	}
	c := inc.core
	//vet:allow toleq -- exact no-op detection: identical bounds need no re-rest
	if c.lb[j] == lo && c.ub[j] == hi {
		return
	}
	c.lb[j], c.ub[j] = lo, hi
	if !inc.dirtyMark[j] {
		inc.dirtyMark[j] = true
		inc.dirty = append(inc.dirty, int32(j))
	}
}

// refreshDirty re-rests every bound-changed nonbasic column inside its
// new box, preferring the side it already rests on. Basic columns just
// acquire the new box; the dual simplex repairs them.
func (inc *Incremental) refreshDirty() {
	c := inc.core
	for _, j := range inc.dirty {
		inc.dirtyMark[j] = false
		if c.state[j] != inBasis {
			c.rest(int(j), c.state[j])
		}
	}
	inc.dirty = inc.dirty[:0]
}

// Clone returns an independent copy of the solver sharing only the
// immutable problem snapshot (compiled matrix, costs, right-hand
// sides). The clone starts from the same basis and bounds — its first
// solve refactorizes — and subsequent SetBounds/Solve calls on either
// side never affect the other, so each branch-and-bound worker can
// carry its own warm basis cloned from one root solver. Clone is not
// safe to call concurrently with Solve or SetBounds on the receiver.
func (inc *Incremental) Clone() *Incremental {
	c := inc.core
	nc := &spxCore{
		a: c.a, m: c.m, n: c.n, ncols: c.ncols, sign: c.sign,
		cost: c.cost, rhs: c.rhs, // shared, never written after construction

		lb:      append([]float64(nil), c.lb...),
		ub:      append([]float64(nil), c.ub...),
		state:   append([]varState(nil), c.state...),
		xval:    append([]float64(nil), c.xval...),
		basis:   append([]int32(nil), c.basis...),
		beta:    append([]float64(nil), c.beta...),
		d:       append([]float64(nil), c.d...),
		dualInf: c.dualInf,

		rho:     make([]float64, c.m),
		erow:    make([]float64, c.m),
		spike:   make([]float64, c.m),
		work:    make([]float64, c.m),
		alpha:   make([]float64, c.ncols),
		touched: make([]int32, 0, c.ncols),
		amark:   make([]bool, c.ncols),

		degenStreak:  c.degenStreak,
		needRefactor: true,
	}
	nc.etas.reset()
	return &Incremental{
		core: nc, o: inc.o, maxIter: inc.maxIter, solves: inc.solves,
		xbuf:      make([]float64, c.n),
		dirty:     append(make([]int32, 0, c.n), inc.dirty...),
		dirtyMark: append([]bool(nil), inc.dirtyMark...),
	}
}

// Solve solves the LP at the current bounds. The returned solution
// shares no state with the solver.
func (inc *Incremental) Solve() (*Solution, error) {
	return inc.SolveCtx(context.Background())
}

// SolveCtx is Solve under a context: the dual simplex loop polls
// ctx.Done() every few pivots and aborts with ctx.Err(). The basis is
// left in a consistent state, so a later SolveCtx with a live context
// resumes the repair. The returned solution shares no state with the
// solver and, at StatusOptimal, carries Duals and ReducedCosts.
func (inc *Incremental) SolveCtx(ctx context.Context) (*Solution, error) {
	sol, err := inc.SolveCtxReuse(ctx)
	if err != nil {
		return nil, err
	}
	out := new(Solution)
	*out = *sol
	out.X = append([]float64(nil), sol.X...)
	if sol.Status == StatusOptimal {
		out.Duals, out.ReducedCosts = inc.core.duals()
	}
	return out, nil
}

// SolveCtxReuse is SolveCtx for the hot path: the returned Solution and
// its X vector are owned by the solver and overwritten by the next
// SolveCtxReuse call, and Duals and ReducedCosts are left nil.
// Steady-state calls perform no heap allocations; callers that keep
// values across solves must copy them first.
func (inc *Incremental) SolveCtxReuse(ctx context.Context) (*Solution, error) {
	start := time.Now()
	c := inc.core
	c.done = ctx.Done()
	if c.done != nil {
		select {
		case <-c.done:
			return nil, ctx.Err()
		default:
		}
	}
	inc.solves++
	c.refactors = 0
	if c.needRefactor || c.etas.count() >= maxEtas {
		c.refactor()
	}
	inc.refreshDirty()
	st := c.solve(inc.maxIter)
	if c.cancelled {
		return nil, ctx.Err()
	}
	sol := &inc.sol
	*sol = Solution{
		Status:           st,
		Iterations:       c.iters,
		Phase1Iterations: c.phase1Iters,
		DegeneratePivots: c.degenPivots,
		DualPivots:       c.iters,
		Refactorizations: c.refactors,
	}
	if st == StatusOptimal || st == StatusIterLimit {
		c.extractX(inc.xbuf)
		obj := 0.0
		for j := 0; j < c.n; j++ {
			obj += c.sign * c.cost[j] * inc.xbuf[j]
		}
		sol.X = inc.xbuf
		sol.Objective = obj
	}
	if inc.o.Enabled() {
		inc.o.Emit(obs.Event{
			Kind: obs.KindLPSolve, Status: st.String(), Obj: sol.Objective,
			Iters: sol.Iterations, Phase1Iters: sol.Phase1Iterations,
			Degenerate: sol.DegeneratePivots,
			DualPivots: sol.DualPivots, Refactors: sol.Refactorizations,
			DurUS: time.Since(start).Microseconds(), Warm: inc.solves > 1,
			Span: obs.SpanID(ctx),
		})
	}
	return sol, nil
}
