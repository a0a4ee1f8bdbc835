package lp

import (
	"math"
	"math/rand"
	"testing"
)

// adjustLP is a fixed-topology floorplan LP built the way the
// floorplanner's given-topology step (paper §2.5) builds it: module
// positions under one separation row per pair, a chip height to
// minimize, absolute-value wire terms, and a chip width that a second,
// lexicographic phase minimizes with the first objective frozen.
type adjustLP struct {
	p      *Problem
	width  VarID
	phase1 []Term // the phase-1 objective, height plus wire
}

// buildAdjustLP packs n boxes with integer sides 2..10 bottom-left into
// a strip 40 wide and reads one left/right/below/above row per pair off
// the packing, preferring horizontal separations. Four pairs in five
// get a wire pair (dx, dy) at a cost drawn from [0.02, 0.08]. Integer
// sides make the LP massively degenerate.
func buildAdjustLP(rng *rand.Rand, n int) adjustLP {
	const W = 40
	type box struct{ x, y, w, h float64 }
	boxes := make([]box, n)
	sky := make([]float64, W) // packing height over each unit column
	hBound := 0.0
	for i := range boxes {
		w, h := 2+rng.Intn(9), float64(2+rng.Intn(9))
		bx, by := 0, math.Inf(1)
		for x := 0; x+w <= W; x++ {
			y := 0.0
			for _, s := range sky[x : x+w] {
				y = math.Max(y, s)
			}
			if y < by {
				bx, by = x, y
			}
		}
		for x := bx; x < bx+w; x++ {
			sky[x] = by + h
		}
		boxes[i] = box{float64(bx), by, float64(w), h}
		hBound += h
	}

	p := NewProblem()
	xs, ys := make([]VarID, n), make([]VarID, n)
	for i, b := range boxes {
		xs[i] = p.AddVariable("x", 0, W-b.w, 0)
		ys[i] = p.AddVariable("y", 0, hBound, 0)
	}
	height := p.AddVariable("height", 0, hBound, 1)
	width := p.AddVariable("width", 0, W, 0)
	phase1 := []Term{{height, 1}}
	for i, b := range boxes {
		p.AddConstraint("fit", []Term{{xs[i], 1}, {width, -1}}, LE, -b.w)
		p.AddConstraint("height", []Term{{height, 1}, {ys[i], -1}}, GE, b.h)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := boxes[i], boxes[j]
			switch {
			case a.x+a.w <= b.x:
				p.AddConstraint("rel.h", []Term{{xs[i], 1}, {xs[j], -1}}, LE, -a.w)
			case b.x+b.w <= a.x:
				p.AddConstraint("rel.h", []Term{{xs[j], 1}, {xs[i], -1}}, LE, -b.w)
			case a.y+a.h <= b.y:
				p.AddConstraint("rel.v", []Term{{ys[i], 1}, {ys[j], -1}}, LE, -a.h)
			default:
				p.AddConstraint("rel.v", []Term{{ys[j], 1}, {ys[i], -1}}, LE, -b.h)
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(5) == 0 {
				continue
			}
			cost := 0.02 + 0.06*rng.Float64()
			dx := p.AddVariable("dx", 0, W, cost)
			dy := p.AddVariable("dy", 0, hBound, cost)
			phase1 = append(phase1, Term{dx, cost}, Term{dy, cost})
			// d >= |centre_i - centre_j| on each axis.
			cx := (boxes[i].w - boxes[j].w) / 2
			p.AddConstraint("abs+", []Term{{dx, 1}, {xs[i], -1}, {xs[j], 1}}, GE, cx)
			p.AddConstraint("abs-", []Term{{dx, 1}, {xs[i], 1}, {xs[j], -1}}, GE, -cx)
			cy := (boxes[i].h - boxes[j].h) / 2
			p.AddConstraint("abs+", []Term{{dy, 1}, {ys[i], -1}, {ys[j], 1}}, GE, cy)
			p.AddConstraint("abs-", []Term{{dy, 1}, {ys[i], 1}, {ys[j], -1}}, GE, -cy)
		}
	}
	return adjustLP{p: p, width: width, phase1: phase1}
}

// freeze turns the LP into its second phase: the phase-1 objective is
// held within a relative 1e-7 of its optimum obj1 and the width becomes
// the objective.
func (a adjustLP) freeze(obj1 float64) {
	a.p.AddConstraint("phase1.freeze", a.phase1, LE, obj1+1e-7*(1+obj1))
	for _, t := range a.phase1 {
		a.p.SetObjectiveCoef(t.Var, 0)
	}
	a.p.SetObjectiveCoef(a.width, 1)
}

// TestAdjustLPFuzz is the anti-cycling regression on floorplan-shaped
// LPs. The width phase of these LPs is almost all degenerate pivots;
// every phase must still end optimal with a feasible point and
// dual-feasible duals, and the smallest instances must match the dense
// oracle. An anti-cycling rule that enters a column off the minimum
// ratio loses dual feasibility here: one such rule (Bland's lowest index
// over every eligible column) failed 13 of these 30 instances, 6 with a
// non-optimal vertex reported optimal and 7 at the iteration limit.
func TestAdjustLPFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const oracleBoxes = 16 // the dense oracle is slow on larger instances
	oracled := 0
	for k := 0; k < 30; k++ {
		n := 16 + rng.Intn(10)
		a := buildAdjustLP(rng, n)
		sol, err := a.p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if err := dualityError(a.p, sol); err != nil {
			t.Errorf("instance %d (%d boxes) height phase: %v", k, n, err)
			continue
		}
		a.freeze(sol.Objective)
		sol, err = a.p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if err := dualityError(a.p, sol); err != nil {
			t.Errorf("instance %d (%d boxes) width phase: %v (%d pivots)", k, n, err, sol.Iterations)
			continue
		}
		if v := a.p.MaxViolation(sol.X); v > 1e-6 {
			t.Errorf("instance %d (%d boxes) width phase: point violates by %v", k, n, v)
			continue
		}
		if n > oracleBoxes {
			continue
		}
		oracled++
		want := oracleSolve(a.p)
		if want.Status != StatusOptimal || math.Abs(sol.Objective-want.Objective) > 1e-6*(1+math.Abs(want.Objective)) {
			t.Errorf("instance %d (%d boxes) width phase: width %v, oracle %v %v", k, n, sol.Objective, want.Status, want.Objective)
		}
	}
	if oracled == 0 {
		t.Fatal("no instance small enough for the oracle")
	}
}
