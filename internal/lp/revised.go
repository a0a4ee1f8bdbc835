package lp

import (
	"math"
)

// Numerical tolerances of the simplex engine. Floorplanning models have
// coefficients of magnitude 1..1e4 (big-M terms are chip dimensions), for
// which these defaults are comfortable.
const (
	pivTol  = 1e-9 // smallest acceptable pivot element
	costTol = 1e-7 // reduced-cost optimality tolerance
	feasTol = 1e-6 // bound excursion clamped away when extracting a point
	zeroTol = 1e-9 // ratio-test degeneracy tolerance
)

const defaultMaxIter = 50000

// cancelPollMask throttles context polling on the pivot loop: the Done
// channel is inspected every 64 pivots, keeping cancellation latency
// well below a millisecond at floorplanning problem sizes while adding
// nothing measurable to the per-pivot cost.
const cancelPollMask = 63

// Sparse revised simplex tolerances and policy knobs.
const (
	// dualLeaveTol is the primal infeasibility a basic variable must
	// exceed to be selected for leaving; it bounds the bound violation of
	// any variable at termination.
	dualLeaveTol = 1e-7
	// spikeAgreeTol guards the row/column agreement check: the pivot
	// element computed via BTRAN (alpha) and via FTRAN (spike) must match
	// or the factorization is refreshed and the pivot re-attempted.
	spikeAgreeTol = 1e-7
	// maxEtas bounds the product-form file before a refactorization.
	maxEtas = 64
	// perturbAfterDegen is the run of consecutive degenerate pivots after
	// which deterministic dual-cost perturbation kicks in to break cycling
	// on massively degenerate instances; it is the engine's only
	// anti-cycling guard, with the iteration cap as the backstop.
	// Perturbations stay far below costTol and are washed out by the next
	// refactorization's exact recompute of the duals.
	perturbAfterDegen = 2000
)

// varState describes where a column currently rests.
type varState int8

const (
	atLower varState = iota
	atUpper
	inBasis
)

// spxCore is the sparse revised dual simplex over a compiled constraint
// matrix. Columns 0..n-1 are structural (CSC columns of A); columns
// n..n+m-1 are the unit slack columns, one per row, whose bounds encode
// the row relation (LE: [0,inf), GE: (-inf,0], EQ: [0,0]).
//
// The basis is represented by an LU factorization plus a product-form
// eta file instead of a dense B^{-1}A tableau: pricing solves one BTRAN
// per pivot to scatter the leaving row, and one FTRAN for the entering
// spike. All working storage is preallocated at construction so a
// SetBounds+Solve warm cycle runs allocation-free.
type spxCore struct {
	a     *compiled
	m, n  int
	ncols int
	sign  float64   // +1 minimize, -1 maximize (internal sense is minimize)
	cost  []float64 // minimize-sense costs, slacks zero
	rhs   []float64

	lb, ub []float64  // per column
	state  []varState // per column
	xval   []float64  // resting value of every nonbasic column
	basis  []int32    // basis position -> column
	beta   []float64  // basic values, by basis position
	d      []float64  // reduced costs, maintained across pivots

	// dualInf records that some nonbasic column rests on its finite side
	// while its reduced cost favours the infinite one, so the rest is not
	// dual feasible and solve must run phase 1 first.
	dualInf bool
	// aux is phase 1's storage (auxiliary bounds, zero right-hand side
	// and zero costs), allocated the first time phase 1 runs.
	aux []float64

	lu   luFactor
	etas etaFile

	// Preallocated per-pivot scratch.
	rho     []float64 // BTRAN of the leaving unit vector, by original row
	erow    []float64 // unit vector input to BTRAN, by basis position
	spike   []float64 // FTRAN of the entering column, by basis position
	work    []float64 // dense by original row
	alpha   []float64 // leaving row of B^{-1}A, by column; cleared per pivot
	touched []int32   // columns with nonzero alpha this pivot
	amark   []bool    // touched-membership; alpha==0 alone cannot detect it,
	// since partial sums across rows can transiently cancel to exact zero
	// and a duplicate touched entry would double the dual update

	// Counters for the current solve.
	iters        int
	phase1Iters  int
	degenPivots  int
	refactors    int
	degenStreak  int
	perturbed    bool
	needRefactor bool

	done      <-chan struct{}
	cancelled bool
}

// newSpxCore builds a core over p's compiled matrix a with the all-slack
// basis installed and factorized and every structural column rested by
// its cost.
func newSpxCore(p *Problem, a *compiled) *spxCore {
	m, n := a.m, a.n
	c := &spxCore{
		a: a, m: m, n: n, ncols: n + m, sign: 1,
		cost:  make([]float64, n+m),
		rhs:   append([]float64(nil), p.rhs...),
		lb:    make([]float64, n+m),
		ub:    make([]float64, n+m),
		state: make([]varState, n+m),
		xval:  make([]float64, n+m),
		basis: make([]int32, m),
		beta:  make([]float64, m),
		d:     make([]float64, n+m),

		rho:     make([]float64, m),
		erow:    make([]float64, m),
		spike:   make([]float64, m),
		work:    make([]float64, m),
		alpha:   make([]float64, n+m),
		touched: make([]int32, 0, n+m),
		amark:   make([]bool, n+m),
	}
	if p.maximize {
		c.sign = -1
	}
	for j := 0; j < n; j++ {
		c.cost[j] = c.sign * p.obj[j]
		c.lb[j], c.ub[j] = p.lo[j], p.hi[j]
	}
	for i := 0; i < m; i++ {
		sj := n + i
		switch p.ops[i] {
		case LE:
			c.lb[sj], c.ub[sj] = 0, math.Inf(1)
		case GE:
			c.lb[sj], c.ub[sj] = math.Inf(-1), 0
		default:
			c.lb[sj], c.ub[sj] = 0, 0
		}
		c.basis[i] = int32(sj)
		c.state[sj] = inBasis
	}
	// Every basic column is a slack of cost zero, so the duals are zero
	// and each reduced cost is the column's cost.
	copy(c.d, c.cost)
	for j := 0; j < n; j++ {
		c.rest(j, costSide(c.cost[j]))
	}
	c.refactor()
	return c
}

// costSide is the side a column leaving the basis is offered first: the
// one its cost favours, the lower one on a tie.
func costSide(cost float64) varState {
	if cost < 0 {
		return atUpper
	}
	return atLower
}

// rest places nonbasic column j on a bound. The dual simplex needs every
// rest dual feasible: a reduced cost above costTol rests the column on
// its lower bound, one below -costTol on its upper bound, and a reduced
// cost within costTol leaves the choice to side. When the chosen bound is
// infinite the column rests on its other bound instead, and if its
// reduced cost favoured the infinite one the rest is dual infeasible:
// rest records that in dualInf for phase 1 to repair. This is the only
// routine that rests a column.
func (c *spxCore) rest(j int, side varState) {
	dj := c.d[j]
	switch {
	case dj > costTol:
		side = atLower
	case dj < -costTol:
		side = atUpper
	}
	if side == atLower && math.IsInf(c.lb[j], -1) {
		side = atUpper
		c.dualInf = c.dualInf || dj > costTol
	} else if side == atUpper && math.IsInf(c.ub[j], 1) {
		side = atLower
		c.dualInf = c.dualInf || dj < -costTol
	}
	c.state[j] = side
	if side == atLower {
		c.xval[j] = c.lb[j]
	} else {
		c.xval[j] = c.ub[j]
	}
}

// restAll re-rests every nonbasic column, preferring the side it already
// rests on, and recomputes dualInf from scratch.
func (c *spxCore) restAll() {
	c.dualInf = false
	for j := 0; j < c.ncols; j++ {
		if c.state[j] != inBasis {
			c.rest(j, c.state[j])
		}
	}
}

// refactor rebuilds the LU factorization of the current basis, resets
// the eta file and recomputes the reduced costs exactly. A singular
// basis is replaced by the all-slack basis (which always factors), and
// every nonbasic column is then re-rested against its new reduced cost;
// a rest that comes out dual infeasible leaves dualInf set, and solve
// runs phase 1 before it pivots on.
func (c *spxCore) refactor() {
	c.refactors++
	singular := c.lu.factorBasis(c.a, c.basis, c.n) != nil
	if singular {
		for i := 0; i < c.m; i++ {
			b := c.basis[i]
			c.state[b] = costSide(c.cost[b])
		}
		for i := 0; i < c.m; i++ {
			sj := int32(c.n + i)
			c.basis[i] = sj
			c.state[sj] = inBasis
		}
		if err := c.lu.factorBasis(c.a, c.basis, c.n); err != nil {
			panic("lp: slack basis failed to factor")
		}
	}
	c.etas.reset()
	c.computeDuals()
	if singular {
		c.restAll()
	}
	c.needRefactor = false
	c.perturbed = false
}

// computeDuals refreshes d from the cost vector through the current
// factorization: y = B^{-T} c_B, d_j = c_j - y'a_j, with d == 0 on basic
// columns. The simplex prices on y via c.work (indexed by original row).
func (c *spxCore) computeDuals() {
	for i := 0; i < c.m; i++ {
		c.erow[i] = c.cost[c.basis[i]]
	}
	c.btranFull(c.erow, c.work)
	y := c.work
	for j := 0; j < c.ncols; j++ {
		if c.state[j] == inBasis {
			c.d[j] = 0
			continue
		}
		if j < c.n {
			dj := c.cost[j]
			for t := c.a.colPtr[j]; t < c.a.colPtr[j+1]; t++ {
				dj -= y[c.a.rowIdx[t]] * c.a.colVal[t]
			}
			c.d[j] = dj
		} else {
			c.d[j] = -y[j-c.n]
		}
	}
}

// computeBeta refreshes the basic values from the resting nonbasic
// point: beta = B^{-1}(rhs - N x_N).
func (c *spxCore) computeBeta() {
	copy(c.work, c.rhs)
	for j := 0; j < c.n; j++ {
		if c.state[j] == inBasis {
			continue
		}
		if v := c.xval[j]; v != 0 {
			for t := c.a.colPtr[j]; t < c.a.colPtr[j+1]; t++ {
				c.work[c.a.rowIdx[t]] -= c.a.colVal[t] * v
			}
		}
	}
	for i := 0; i < c.m; i++ {
		sj := c.n + i
		if c.state[sj] != inBasis {
			if v := c.xval[sj]; v != 0 {
				c.work[i] -= v
			}
		}
	}
	c.ftranFull(c.work, c.beta)
}

// ftranFull solves B z = v through the LU factors and the eta file.
// v (by original row) is destroyed; out is by basis position.
func (c *spxCore) ftranFull(v, out []float64) {
	c.lu.ftran(v, out)
	for e := 0; e < c.etas.count(); e++ {
		c.etas.applyFtran(e, out)
	}
}

// btranFull solves B'y = cvec through the eta file (reverse order) and
// the LU factors. cvec (by basis position) is destroyed; y is by
// original row.
func (c *spxCore) btranFull(cvec, y []float64) {
	for e := c.etas.count() - 1; e >= 0; e-- {
		c.etas.applyBtran(e, cvec)
	}
	c.lu.btran(cvec, y)
}

// scatterColumn writes column j of [A | I] into the dense work vector
// (by original row), which must be zero on entry.
func (c *spxCore) scatterColumn(j int) {
	if j < c.n {
		for t := c.a.colPtr[j]; t < c.a.colPtr[j+1]; t++ {
			c.work[c.a.rowIdx[t]] = c.a.colVal[t]
		}
	} else {
		c.work[j-c.n] = 1
	}
}

// solve runs the dual simplex from the current rest to a final status,
// running phase 1 first whenever the rest is not dual feasible. It
// assumes d is consistent with the factorized basis and computes beta
// itself. maxIter bounds the pivots of both phases together.
func (c *spxCore) solve(maxIter int) Status {
	c.iters, c.phase1Iters, c.degenPivots = 0, 0, 0
	c.cancelled = false
	c.computeBeta()
	for {
		if c.dualInf {
			start := c.iters
			st, ok := c.phase1(maxIter)
			c.phase1Iters += c.iters - start
			if !ok {
				return st
			}
		}
		st := c.dualLoop(maxIter)
		if !c.dualInf {
			return st
		}
		// A singular basis was reset mid-loop and left a rest dual
		// infeasible: repair it and carry on.
	}
}

// phase1 makes the rest dual feasible. It runs the dual loop on an
// auxiliary problem with the same costs, a zero right-hand side and the
// bounds [0,1] on a column whose lower bound alone is finite, [-1,0] on
// one whose upper bound alone is, and [0,0] on one with both. Those
// bounds are finite, so every rest is dual feasible and x = 0 is
// feasible: the loop ends at an optimum, whose value is minus the least
// total dual infeasibility of any basis. At a zero optimum every column
// rests dual feasibly on its true bounds, and phase1 reports ok with
// beta recomputed for phase 2. A negative optimum proves the dual
// infeasible, so the problem is unbounded if it has a feasible point and
// infeasible otherwise; one more run of the loop with zero costs, where
// every rest is dual feasible, tells which, and that is the status
// phase1 returns.
func (c *spxCore) phase1(maxIter int) (Status, bool) {
	if c.aux == nil {
		c.aux = make([]float64, 3*c.ncols+c.m)
	}
	lb, ub, rhs, cost := c.lb, c.ub, c.rhs, c.cost
	alb, aub := c.aux[:c.ncols], c.aux[c.ncols:2*c.ncols]
	zeroCost, zeroRHS := c.aux[2*c.ncols:3*c.ncols], c.aux[3*c.ncols:]
	for j := range alb {
		alb[j], aub[j] = 0, 0
		if math.IsInf(lb[j], -1) {
			alb[j] = -1
		}
		if math.IsInf(ub[j], 1) {
			aub[j] = 1
		}
	}
	c.lb, c.ub, c.rhs = alb, aub, zeroRHS
	c.restAll()
	c.computeBeta()
	st := c.dualLoop(maxIter)
	c.lb, c.ub, c.rhs = lb, ub, rhs
	c.restAll()
	c.computeBeta()
	if st != StatusOptimal {
		// The auxiliary problem is feasible and bounded, so the loop
		// stopped at the iteration limit, on cancellation or stuck.
		return StatusIterLimit, false
	}
	if !c.dualInf {
		return StatusOptimal, true
	}

	// Dual infeasible. With zero costs d is zero, every rest is dual
	// feasible, and the loop ends optimal exactly when a feasible point
	// exists.
	c.cost = zeroCost
	for j := range c.d {
		c.d[j] = 0
	}
	c.restAll()
	st = c.dualLoop(maxIter)
	c.cost = cost
	c.computeDuals()
	c.restAll()
	c.computeBeta()
	switch st {
	case StatusOptimal:
		return StatusUnbounded, false
	case StatusInfeasible:
		return StatusInfeasible, false
	}
	return StatusIterLimit, false
}

// dualLoop pivots until every basic value lies inside its box. It
// assumes beta and d are consistent with the current basis and the rest
// dual feasible, and returns early when a singular-basis reset leaves a
// rest dual infeasible (dualInf), which solve repairs. maxIter bounds
// the pivots of the whole solve.
func (c *spxCore) dualLoop(maxIter int) Status {
	for {
		if c.iters >= maxIter {
			return StatusIterLimit
		}
		if c.done != nil && c.iters&cancelPollMask == 0 {
			select {
			case <-c.done:
				c.cancelled = true
				return StatusIterLimit
			default:
			}
		}
		if c.etas.count() >= maxEtas {
			c.refactor()
			c.computeBeta()
		}
		if c.dualInf {
			return StatusIterLimit
		}

		// Leaving choice: most violated basic variable.
		leave := -1
		viol := dualLeaveTol
		var needIncrease bool
		for i := 0; i < c.m; i++ {
			b := c.basis[i]
			if dv := c.lb[b] - c.beta[i]; dv > viol {
				viol, leave, needIncrease = dv, i, true
			}
			if dv := c.beta[i] - c.ub[b]; dv > viol {
				viol, leave, needIncrease = dv, i, false
			}
		}
		if leave < 0 {
			return StatusOptimal
		}
		switch c.dualPivot(leave, needIncrease) {
		case pivotOK:
			c.iters++
		case pivotInfeasible:
			return StatusInfeasible
		case pivotRetry:
			// Factorization was refreshed; re-price and try again.
		case pivotStuck:
			return StatusIterLimit
		}
	}
}

type pivotResult int

const (
	pivotOK pivotResult = iota
	pivotInfeasible
	pivotRetry
	pivotStuck
)

// dualPivot performs one dual simplex pivot on basis row r. The ratio
// test reads the leaving row alpha = rho'A scattered from the CSR rows
// that rho touches.
func (c *spxCore) dualPivot(r int, needIncrease bool) pivotResult {
	// rho = B^{-T} e_r, then alpha_j = rho'a_j over nonbasic columns.
	for i := 0; i < c.m; i++ {
		c.erow[i] = 0
	}
	c.erow[r] = 1
	c.btranFull(c.erow, c.rho)

	c.touched = c.touched[:0]
	for i := 0; i < c.m; i++ {
		ri := c.rho[i]
		if ri == 0 {
			continue
		}
		for t := c.a.rowPtr[i]; t < c.a.rowPtr[i+1]; t++ {
			j := c.a.colIdx[t]
			if c.state[j] == inBasis {
				continue
			}
			if !c.amark[j] {
				c.amark[j] = true
				c.touched = append(c.touched, j)
			}
			c.alpha[j] += ri * c.a.rowVal[t]
		}
		sj := int32(c.n + i)
		if c.state[sj] != inBasis {
			if !c.amark[sj] {
				c.amark[sj] = true
				c.touched = append(c.touched, sj)
			}
			c.alpha[sj] += ri
		}
	}

	enter := int32(-1)
	bestRatio := math.Inf(1)
	bestAbs := 0.0
	for _, j := range c.touched {
		a := c.alpha[j]
		if a == 0 {
			continue
		}
		// Fixed columns (EQ slacks, B&B-fixed integers) cannot move off
		// their point, so they can neither repair the violated row nor
		// bound the dual ray; their reduced-cost sign is unconstrained
		// and admitting them corrupts the dual update.
		//vet:allow toleq -- exact fixed-column detection, bounds are set identically
		if c.lb[j] == c.ub[j] {
			continue
		}
		var ok bool
		var ratio float64
		z := c.d[j]
		if c.perturbed {
			z += perturbation(int(j), c.state[j])
		}
		if needIncrease {
			// The basic variable increases when an at-lower nonbasic with
			// alpha<0 rises, or an at-upper nonbasic with alpha>0 falls.
			if c.state[j] == atLower && a < -pivTol {
				ok, ratio = true, z/(-a)
			} else if c.state[j] == atUpper && a > pivTol {
				ok, ratio = true, (-z)/a
			}
		} else {
			if c.state[j] == atLower && a > pivTol {
				ok, ratio = true, z/a
			} else if c.state[j] == atUpper && a < -pivTol {
				ok, ratio = true, (-z)/(-a)
			}
		}
		if !ok {
			continue
		}
		if ratio < -1e-7 {
			// Numerical dual infeasibility; treat as zero ratio.
			ratio = 0
		}
		if ratio < bestRatio-zeroTol ||
			(ratio <= bestRatio+zeroTol && (a > bestAbs || -a > bestAbs)) {
			enter, bestRatio = j, ratio
			if bestAbs = a; a < 0 {
				bestAbs = -a
			}
		}
	}
	if enter < 0 {
		c.clearAlpha()
		return pivotInfeasible
	}
	alphaE := c.alpha[enter]

	// Entering spike via FTRAN; cross-check the pivot element computed
	// both ways and refresh the factorization on disagreement.
	for i := 0; i < c.m; i++ {
		c.work[i] = 0
	}
	c.scatterColumn(int(enter))
	c.ftranFull(c.work, c.spike)
	diff := c.spike[r] - alphaE
	if diff < 0 {
		diff = -diff
	}
	scale := alphaE
	if scale < 0 {
		scale = -scale
	}
	if diff > spikeAgreeTol*(1+scale) || c.spike[r] == 0 {
		c.clearAlpha()
		if c.etas.count() > 0 {
			c.refactor()
			c.computeBeta()
			return pivotRetry
		}
		// Fresh factors and the two pivot computations still disagree:
		// the basis is too ill-conditioned to continue safely.
		return pivotStuck
	}

	// Degeneracy bookkeeping and anti-cycling escalation.
	if bestRatio < zeroTol {
		c.degenPivots++
		c.degenStreak++
		if c.degenStreak > perturbAfterDegen {
			c.perturbed = true
		}
	} else {
		c.degenStreak = 0
	}

	// Dual update over the touched columns: theta_d = d_e / alpha_e.
	thetaD := c.d[enter] / alphaE
	if thetaD != 0 {
		for _, j := range c.touched {
			if j == enter || c.state[j] == inBasis {
				continue
			}
			c.d[j] -= thetaD * c.alpha[j]
		}
	}
	b := c.basis[r]
	c.d[b] = -thetaD
	c.d[enter] = 0

	// Primal update: the entering variable moves by theta_p, driving the
	// leaving basic exactly to its violated bound.
	var target float64
	if needIncrease {
		target = c.lb[b]
	} else {
		target = c.ub[b]
	}
	thetaP := (c.beta[r] - target) / c.spike[r]
	for i := 0; i < c.m; i++ {
		if i != r {
			if s := c.spike[i]; s != 0 {
				c.beta[i] -= s * thetaP
			}
		}
	}
	c.beta[r] = c.xval[enter] + thetaP

	if needIncrease {
		c.state[b] = atLower
		c.xval[b] = c.lb[b]
	} else {
		c.state[b] = atUpper
		c.xval[b] = c.ub[b]
	}
	c.state[enter] = inBasis
	c.basis[r] = enter

	c.etas.push(r, c.spike)
	c.clearAlpha()
	return pivotOK
}

func (c *spxCore) clearAlpha() {
	for _, j := range c.touched {
		c.alpha[j] = 0
		c.amark[j] = false
	}
	c.touched = c.touched[:0]
}

// perturbation is a deterministic, column-dependent dual-cost nudge in
// the dual-feasible direction, far below costTol. It only biases pivot
// selection; the next refactorization recomputes d exactly.
func perturbation(j int, st varState) float64 {
	e := 1e-10 * float64(1+j%17)
	if st == atUpper {
		return -e
	}
	return e
}

// extractX writes the primal point into x (length n), clamping bound
// excursions below feasTol back onto the bound.
func (c *spxCore) extractX(x []float64) {
	for j := 0; j < c.n; j++ {
		if c.state[j] != inBasis {
			x[j] = c.xval[j]
		}
	}
	for i := 0; i < c.m; i++ {
		b := c.basis[i]
		if int(b) >= c.n {
			continue
		}
		v := c.beta[i]
		if lo := c.lb[b]; v < lo && v > lo-feasTol {
			v = lo
		}
		if hi := c.ub[b]; v > hi && v < hi+feasTol {
			v = hi
		}
		x[b] = v
	}
}

// duals returns the row duals and the structural reduced costs of the
// current basis in the problem's own objective sense. They are computed
// afresh through the factors, so pivot-to-pivot drift in the maintained
// d never reaches callers, and d itself is left untouched.
func (c *spxCore) duals() (duals, reduced []float64) {
	for i := 0; i < c.m; i++ {
		c.erow[i] = c.cost[c.basis[i]]
	}
	c.btranFull(c.erow, c.work)
	y := c.work
	duals = make([]float64, c.m)
	for i, yi := range y {
		if yi != 0 { // leave zeros positive: -1*0 would print as -0
			duals[i] = c.sign * yi
		}
	}
	reduced = make([]float64, c.n)
	for j := range reduced {
		if c.state[j] == inBasis {
			continue
		}
		dj := c.cost[j]
		for t := c.a.colPtr[j]; t < c.a.colPtr[j+1]; t++ {
			dj -= y[c.a.rowIdx[t]] * c.a.colVal[t]
		}
		reduced[j] = c.sign * dj
	}
	return duals, reduced
}
