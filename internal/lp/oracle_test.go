package lp

import "math"

// The dense two-phase tableau simplex below is the differential oracle
// for the sparse revised dual simplex: a textbook bounded-variable
// primal simplex (full tableau, Dantzig pricing, a Bland anti-cycling
// fallback, artificial-variable phase 1) that shares nothing with the
// production engine but the Problem model and the tolerances.

// tableau is the mutable state of one simplex solve.
type tableau struct {
	m, ncols int
	nStruct  int // structural variables (prefix of columns)
	artStart int // first artificial column; ncols if none

	T     [][]float64 // m x ncols, current B^{-1}A
	beta  []float64   // current values of basic variables
	u     []float64   // upper bounds of shifted variables (lower bounds are 0)
	basis []int       // column basic in each row
	state []varState

	zrow []float64 // reduced costs for the active phase
	cost []float64 // active phase cost vector

	iter, maxIter int
	blandLeft     int // remaining forced-Bland pivots after degeneracy streak
	degenStreak   int
}

// oracleSolve runs the two-phase bounded-variable simplex on p.
func oracleSolve(p *Problem) *Solution {
	n := len(p.names)
	m := len(p.rows)

	// Shifted bounds: x = lo + xt, xt in [0, u].
	u := make([]float64, 0, n+m*2)
	for j := 0; j < n; j++ {
		u = append(u, p.hi[j]-p.lo[j])
	}

	// Count slacks.
	nSlack := 0
	for _, op := range p.ops {
		if op != EQ {
			nSlack++
		}
	}

	// Dense rows over structural+slack columns; artificial columns appended
	// later only for rows that need one.
	ncols := n + nSlack
	T := make([][]float64, m)
	rhs := make([]float64, m)
	slackCol := make([]int, m)
	for i := range slackCol {
		slackCol[i] = -1
	}
	sc := n
	for i := 0; i < m; i++ {
		T[i] = make([]float64, ncols, ncols+m)
		b := p.rhs[i]
		for _, t := range p.rows[i] {
			T[i][t.Var] += t.Coef
			b -= t.Coef * p.lo[t.Var] // shift by lower bounds
		}
		rhs[i] = b
		switch p.ops[i] {
		case LE:
			T[i][sc] = 1
			slackCol[i] = sc
			u = append(u, math.Inf(1))
			sc++
		case GE:
			T[i][sc] = -1
			slackCol[i] = sc
			u = append(u, math.Inf(1))
			sc++
		}
	}

	// Initial basis: use the slack where it yields a feasible unit column,
	// otherwise normalize the row sign and add an artificial.
	basis := make([]int, m)
	beta := make([]float64, m)
	artStart := ncols
	nArt := 0
	for i := 0; i < m; i++ {
		op := p.ops[i]
		if op == LE && rhs[i] >= 0 {
			basis[i] = slackCol[i]
			beta[i] = rhs[i]
			continue
		}
		if op == GE && rhs[i] <= 0 {
			negateRow(T[i])
			rhs[i] = -rhs[i]
			basis[i] = slackCol[i]
			beta[i] = rhs[i]
			continue
		}
		if rhs[i] < 0 {
			negateRow(T[i])
			rhs[i] = -rhs[i]
		}
		basis[i] = -1 // placeholder, artificial assigned below
		nArt++
	}
	if nArt > 0 {
		for i := 0; i < m; i++ {
			for len(T[i]) < ncols+nArt {
				T[i] = append(T[i], 0)
			}
		}
		ac := ncols
		for i := 0; i < m; i++ {
			if basis[i] == -1 {
				T[i][ac] = 1
				basis[i] = ac
				beta[i] = rhs[i]
				u = append(u, math.Inf(1))
				ac++
			}
		}
		ncols += nArt
	}

	tb := &tableau{
		m: m, ncols: ncols, nStruct: n, artStart: artStart,
		T: T, beta: beta, u: u, basis: basis,
		state:   make([]varState, ncols),
		maxIter: defaultMaxIter,
	}
	for _, b := range basis {
		tb.state[b] = inBasis
	}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		cost := make([]float64, ncols)
		for j := artStart; j < ncols; j++ {
			cost[j] = 1
		}
		tb.setPhaseCost(cost)
		if st := tb.iterate(); st == StatusIterLimit {
			return &Solution{Status: StatusIterLimit, X: tb.extract(p), Iterations: tb.iter}
		}
		if tb.phaseObjective() > feasTol*(1+absMax(rhs)) {
			return &Solution{Status: StatusInfeasible, X: tb.extract(p), Iterations: tb.iter}
		}
		tb.driveOutArtificials()
		// Lock artificials at zero so they can never re-enter.
		for j := artStart; j < ncols; j++ {
			if tb.state[j] != inBasis {
				tb.u[j] = 0
				tb.state[j] = atLower
			}
		}
	}

	// Phase 2: minimize the shifted original objective.
	cost := make([]float64, ncols)
	sign := 1.0
	if p.maximize {
		sign = -1
	}
	for j := 0; j < n; j++ {
		cost[j] = sign * p.obj[j]
	}
	tb.setPhaseCost(cost)
	st := tb.iterate()
	x := tb.extract(p)
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.obj[j] * x[j]
	}
	return &Solution{Status: st, Objective: obj, X: x, Iterations: tb.iter}
}

func negateRow(row []float64) {
	for i := range row {
		row[i] = -row[i]
	}
}

func absMax(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// setPhaseCost installs a cost vector and recomputes the reduced-cost row
// from scratch: z_j = c_j - sum_r c_B[r] * T[r][j].
func (tb *tableau) setPhaseCost(cost []float64) {
	tb.cost = cost
	z := make([]float64, tb.ncols)
	copy(z, cost)
	for r := 0; r < tb.m; r++ {
		cb := cost[tb.basis[r]]
		if cb == 0 {
			continue
		}
		row := tb.T[r]
		for j := 0; j < tb.ncols; j++ {
			z[j] -= cb * row[j]
		}
	}
	tb.zrow = z
}

// phaseObjective returns the current value of the active phase cost.
func (tb *tableau) phaseObjective() float64 {
	var v float64
	for r := 0; r < tb.m; r++ {
		v += tb.cost[tb.basis[r]] * tb.beta[r]
	}
	for j := 0; j < tb.ncols; j++ {
		if tb.state[j] == atUpper {
			v += tb.cost[j] * tb.u[j]
		}
	}
	return v
}

// iterate runs simplex pivots until optimality, unboundedness or the
// iteration limit. It returns StatusOptimal when no improving nonbasic
// variable remains.
func (tb *tableau) iterate() Status {
	for {
		if tb.iter >= tb.maxIter {
			return StatusIterLimit
		}
		e, sigma := tb.chooseEntering()
		if e < 0 {
			return StatusOptimal
		}
		if unbounded := tb.pivotOn(e, sigma); unbounded {
			return StatusUnbounded
		}
	}
}

func (tb *tableau) chooseEntering() (col int, sigma float64) {
	bland := tb.blandLeft > 0
	best := -1
	bestViol := costTol
	bestSigma := 1.0
	for j := 0; j < tb.ncols; j++ {
		if tb.state[j] == inBasis || tb.u[j] == 0 {
			continue // basic, or fixed variable that can never move
		}
		var viol, s float64
		switch tb.state[j] {
		case atLower:
			if tb.zrow[j] < -costTol {
				viol, s = -tb.zrow[j], 1
			}
		case atUpper:
			if tb.zrow[j] > costTol {
				viol, s = tb.zrow[j], -1
			}
		default:
			continue
		}
		if viol == 0 {
			continue
		}
		if bland {
			return j, s
		}
		if viol > bestViol {
			bestViol, best, bestSigma = viol, j, s
		}
	}
	return best, bestSigma
}

// pivotOn moves entering variable e in direction sigma (+1 when rising
// from its lower bound, -1 when falling from its upper bound) as far as
// the ratio test allows, then performs a bound flip or a basis change. It
// reports whether the problem is unbounded in that direction.
func (tb *tableau) pivotOn(e int, sigma float64) (unbounded bool) {
	tb.iter++

	// Ratio test. The entering variable may at most traverse its own range;
	// ties between blocking rows are broken by the largest pivot magnitude
	// (stability) or, under Bland's rule, by the lowest basis index.
	tMax := tb.u[e]
	leave := -1
	leaveToUpper := false
	bland := tb.blandLeft > 0
	bestPiv := 0.0
	for r := 0; r < tb.m; r++ {
		coef := sigma * tb.T[r][e]
		var t float64
		var toUpper bool
		switch {
		case coef > pivTol:
			// Basic variable decreases toward 0.
			t = tb.beta[r] / coef
			toUpper = false
		case coef < -pivTol:
			// Basic variable increases toward its upper bound.
			ub := tb.u[tb.basis[r]]
			if math.IsInf(ub, 1) {
				continue
			}
			t = (ub - tb.beta[r]) / (-coef)
			toUpper = true
		default:
			continue
		}
		if t < 0 {
			t = 0
		}
		switch {
		case t < tMax-zeroTol:
			tMax, leave, leaveToUpper, bestPiv = t, r, toUpper, math.Abs(coef)
		case t <= tMax+zeroTol && leave >= 0:
			// Tie between blocking rows.
			take := false
			if bland {
				take = tb.basis[r] < tb.basis[leave]
			} else {
				take = math.Abs(coef) > bestPiv
			}
			if take {
				leave, leaveToUpper, bestPiv = r, toUpper, math.Abs(coef)
			}
		}
	}

	if math.IsInf(tMax, 1) {
		return true
	}

	// Track degeneracy for the Bland fallback.
	if tMax < zeroTol {
		tb.degenStreak++
		if tb.degenStreak > 100 && tb.blandLeft == 0 {
			tb.blandLeft = 500
		}
	} else {
		tb.degenStreak = 0
		if tb.blandLeft > 0 {
			tb.blandLeft--
		}
	}

	if leave < 0 {
		// Bound flip: entering traverses its whole range without any basic
		// variable blocking.
		for r := 0; r < tb.m; r++ {
			tb.beta[r] -= sigma * tb.T[r][e] * tb.u[e]
		}
		if tb.state[e] == atLower {
			tb.state[e] = atUpper
		} else {
			tb.state[e] = atLower
		}
		return false
	}

	// Update basic values.
	for r := 0; r < tb.m; r++ {
		if r != leave {
			tb.beta[r] -= sigma * tb.T[r][e] * tMax
		}
	}
	var enterVal float64
	if sigma > 0 {
		enterVal = tMax
	} else {
		enterVal = tb.u[e] - tMax
	}

	// Status changes.
	l := tb.basis[leave]
	if leaveToUpper {
		tb.state[l] = atUpper
	} else {
		tb.state[l] = atLower
	}
	tb.state[e] = inBasis
	tb.basis[leave] = e
	tb.beta[leave] = enterVal

	// Gaussian pivot on (leave, e).
	piv := tb.T[leave][e]
	row := tb.T[leave]
	inv := 1 / piv
	for j := 0; j < tb.ncols; j++ {
		row[j] *= inv
	}
	for r := 0; r < tb.m; r++ {
		if r == leave {
			continue
		}
		f := tb.T[r][e]
		if f == 0 {
			continue
		}
		tr := tb.T[r]
		for j := 0; j < tb.ncols; j++ {
			tr[j] -= f * row[j]
		}
		tr[e] = 0 // exact zero for numerical hygiene
	}
	f := tb.zrow[e]
	if f != 0 {
		for j := 0; j < tb.ncols; j++ {
			tb.zrow[j] -= f * row[j]
		}
		tb.zrow[e] = 0
	}
	return false
}

// driveOutArtificials pivots any artificial still basic at zero out of the
// basis where possible. Rows whose non-artificial coefficients are all
// zero are redundant and keep their artificial basic at value zero.
func (tb *tableau) driveOutArtificials() {
	for r := 0; r < tb.m; r++ {
		b := tb.basis[r]
		if b < tb.artStart {
			continue
		}
		// Find a non-artificial, non-fixed column to pivot in.
		pivCol := -1
		for j := 0; j < tb.artStart; j++ {
			if tb.state[j] == inBasis || tb.u[j] == 0 {
				continue
			}
			if math.Abs(tb.T[r][j]) > 1e-7 {
				pivCol = j
				break
			}
		}
		if pivCol < 0 {
			continue // redundant row
		}
		// Degenerate basis exchange: no variable moves. The artificial leaves
		// the basis at value zero and is locked there; the entering variable
		// becomes basic at whichever bound it currently rests on.
		e := pivCol
		l := tb.basis[r]
		enterVal := 0.0
		if tb.state[e] == atUpper {
			enterVal = tb.u[e]
		}
		tb.state[l] = atLower
		tb.u[l] = 0
		tb.state[e] = inBasis
		tb.basis[r] = e
		inv := 1 / tb.T[r][e]
		row := tb.T[r]
		for j := 0; j < tb.ncols; j++ {
			row[j] *= inv
		}
		for rr := 0; rr < tb.m; rr++ {
			if rr == r {
				continue
			}
			f := tb.T[rr][e]
			if f == 0 {
				continue
			}
			tr := tb.T[rr]
			for j := 0; j < tb.ncols; j++ {
				tr[j] -= f * row[j]
			}
			tr[e] = 0
		}
		tb.beta[r] = enterVal
	}
}

// extract maps the shifted tableau solution back to original variable
// values.
func (tb *tableau) extract(p *Problem) []float64 {
	xt := make([]float64, tb.nStruct)
	for j := 0; j < tb.nStruct; j++ {
		switch tb.state[j] {
		case atUpper:
			xt[j] = tb.u[j]
		case atLower:
			xt[j] = 0
		}
	}
	for r := 0; r < tb.m; r++ {
		if b := tb.basis[r]; b < tb.nStruct {
			v := tb.beta[r]
			// Clamp tiny numerical excursions back into the box.
			if v < 0 && v > -1e-6 {
				v = 0
			}
			if ub := tb.u[b]; v > ub && v < ub+1e-6 {
				v = ub
			}
			xt[b] = v
		}
	}
	x := make([]float64, tb.nStruct)
	for j := range x {
		x[j] = p.lo[j] + xt[j]
	}
	return x
}
