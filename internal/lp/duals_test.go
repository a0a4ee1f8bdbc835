package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkDuality verifies an optimal solution's duals: strong duality with
// bounds, complementary slackness and dual feasibility (see
// dualityError).
func checkDuality(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	if err := dualityError(p, sol); err != nil {
		t.Fatal(err)
	}
}

// dualityError reports the first way sol fails to be a proven optimum
// of p, or nil. Strong duality and complementary slackness hold at any
// basic solution, so it also checks the sign conditions that only an
// optimal basis meets. In minimize sense a column resting on its lower
// bound has a reduced cost of at least -tol and one on its upper bound
// at most tol; an LE row's dual is at most tol and a GE row's at least
// -tol. Maximize flips every sign. Fixed columns, and boxes narrower than
// the bound tolerance, have no sign condition.
func dualityError(p *Problem, sol *Solution) error {
	if sol.Status != StatusOptimal {
		return fmt.Errorf("status %v", sol.Status)
	}
	if len(sol.Duals) != p.NumConstraints() || len(sol.ReducedCosts) != p.NumVariables() {
		return fmt.Errorf("duals/reduced sizes %d/%d", len(sol.Duals), len(sol.ReducedCosts))
	}
	// Strong duality: obj = y'b + d'x.
	var rhsPart, redPart float64
	for i := 0; i < p.NumConstraints(); i++ {
		rhsPart += sol.Duals[i] * p.rhs[i]
	}
	for j := 0; j < p.NumVariables(); j++ {
		redPart += sol.ReducedCosts[j] * sol.X[j]
	}
	scale := 1 + math.Abs(sol.Objective)
	if diff := math.Abs(sol.Objective - (rhsPart + redPart)); diff > 1e-6*scale {
		return fmt.Errorf("strong duality violated: obj %v vs y'b+d'x %v (y'b=%v, d'x=%v)",
			sol.Objective, rhsPart+redPart, rhsPart, redPart)
	}
	// Complementary slackness: nonzero dual -> tight row.
	for i := 0; i < p.NumConstraints(); i++ {
		if math.Abs(sol.Duals[i]) < 1e-7 {
			continue
		}
		var lhs float64
		for _, tm := range p.rows[i] {
			lhs += tm.Coef * sol.X[tm.Var]
		}
		if math.Abs(lhs-p.rhs[i]) > 1e-6*scale {
			return fmt.Errorf("row %d has dual %v but slack %v", i, sol.Duals[i], lhs-p.rhs[i])
		}
	}
	// Nonzero reduced cost -> variable at a bound.
	for j := 0; j < p.NumVariables(); j++ {
		if math.Abs(sol.ReducedCosts[j]) < 1e-7 {
			continue
		}
		lo, hi := p.Bounds(VarID(j))
		if math.Abs(sol.X[j]-lo) > 1e-6 && math.Abs(sol.X[j]-hi) > 1e-6 {
			return fmt.Errorf("var %d has reduced cost %v but interior value %v in [%v, %v]",
				j, sol.ReducedCosts[j], sol.X[j], lo, hi)
		}
	}
	// Dual feasibility, checked in minimize sense.
	const tol = 1e-6
	sense := 1.0
	if p.maximize {
		sense = -1
	}
	for j := 0; j < p.NumVariables(); j++ {
		lo, hi := p.Bounds(VarID(j))
		atLo, atHi := sol.X[j]-lo <= 1e-6, hi-sol.X[j] <= 1e-6
		d := sense * sol.ReducedCosts[j]
		switch {
		case atLo && atHi:
		case atLo && d < -tol:
			return fmt.Errorf("var %d at its lower bound %v has reduced cost %v", j, lo, sol.ReducedCosts[j])
		case atHi && d > tol:
			return fmt.Errorf("var %d at its upper bound %v has reduced cost %v", j, hi, sol.ReducedCosts[j])
		}
	}
	for i := 0; i < p.NumConstraints(); i++ {
		y := sense * sol.Duals[i]
		if (p.ops[i] == LE && y > tol) || (p.ops[i] == GE && y < -tol) {
			return fmt.Errorf("%v row %d has dual %v of the wrong sign", p.ops[i], i, sol.Duals[i])
		}
	}
	return nil
}

func TestDualsTextbook(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (optimum 36 at (2,6)).
	// Known duals: y1 = 0, y2 = 3/2, y3 = 1.
	p := NewProblem()
	p.SetMaximize(true)
	x := p.AddVariable("x", 0, math.Inf(1), 3)
	y := p.AddVariable("y", 0, math.Inf(1), 5)
	p.AddConstraint("c1", []Term{{x, 1}}, LE, 4)
	p.AddConstraint("c2", []Term{{y, 2}}, LE, 12)
	p.AddConstraint("c3", []Term{{x, 3}, {y, 2}}, LE, 18)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	checkDuality(t, p, sol)
	want := []float64{0, 1.5, 1}
	for i, w := range want {
		if math.Abs(sol.Duals[i]-w) > 1e-7 {
			t.Fatalf("dual %d = %v, want %v (all: %v)", i, sol.Duals[i], w, sol.Duals)
		}
	}
}

func TestDualsWithEqualities(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 10, 1)
	y := p.AddVariable("y", 0, 10, 2)
	p.AddConstraint("sum", []Term{{x, 1}, {y, 1}}, EQ, 6)
	p.AddConstraint("cap", []Term{{x, 1}}, LE, 4)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	checkDuality(t, p, sol)
}

func TestDualsWithGEAndBounds(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 1, 5, 3)
	y := p.AddVariable("y", 0, 4, 1)
	p.AddConstraint("cover", []Term{{x, 2}, {y, 1}}, GE, 7)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	checkDuality(t, p, sol)
}

// Randomized duality check across feasible LPs of mixed row types.
func TestDualsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 120; trial++ {
		nv := 2 + rng.Intn(5)
		p := NewProblem()
		point := make([]float64, nv)
		vars := make([]VarID, nv)
		for j := 0; j < nv; j++ {
			lo := float64(rng.Intn(4)) - 1
			hi := lo + 1 + float64(rng.Intn(8))
			vars[j] = p.AddVariable("v", lo, hi, float64(rng.Intn(9)-4))
			point[j] = lo + (hi-lo)*rng.Float64()
		}
		for i := 0; i < 1+rng.Intn(5); i++ {
			var terms []Term
			lhs := 0.0
			for j := 0; j < nv; j++ {
				c := float64(rng.Intn(7) - 3)
				if c == 0 {
					continue
				}
				terms = append(terms, Term{vars[j], c})
				lhs += c * point[j]
			}
			if len(terms) == 0 {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				p.AddConstraint("c", terms, LE, lhs+rng.Float64()*2)
			case 1:
				p.AddConstraint("c", terms, GE, lhs-rng.Float64()*2)
			default:
				p.AddConstraint("c", terms, EQ, lhs)
			}
		}
		if rng.Intn(2) == 0 {
			p.SetMaximize(true)
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: %v", trial, sol.Status)
		}
		checkDuality(t, p, sol)
	}
}
