package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Box LP with no constraints: the optimum sits on the bounds selected by
// the cost signs.
func TestBoxLPProperty(t *testing.T) {
	f := func(costs [5]int8, widths [5]uint8) bool {
		p := NewProblem()
		want := 0.0
		var vars []VarID
		for i := 0; i < 5; i++ {
			lo := float64(i) - 2
			hi := lo + float64(widths[i]%10)
			c := float64(costs[i])
			vars = append(vars, p.AddVariable("v", lo, hi, c))
			if c >= 0 {
				want += c * lo
			} else {
				want += c * hi
			}
		}
		sol, err := p.Solve()
		if err != nil || sol.Status != StatusOptimal {
			return false
		}
		return math.Abs(sol.Objective-want) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// 2-variable LPs cross-checked against explicit vertex enumeration: the
// optimum of a bounded feasible LP lies at a vertex of the polygon formed
// by constraint and bound lines.
func TestTwoVarVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		p := NewProblem()
		loX, hiX := 0.0, float64(1+rng.Intn(10))
		loY, hiY := 0.0, float64(1+rng.Intn(10))
		cx := float64(rng.Intn(11) - 5)
		cy := float64(rng.Intn(11) - 5)
		x := p.AddVariable("x", loX, hiX, cx)
		y := p.AddVariable("y", loY, hiY, cy)

		type line struct{ a, b, c float64 } // a*x + b*y <= c
		var lines []line
		nc := rng.Intn(4)
		// One shared anchor point inside the box keeps the whole system
		// feasible by construction.
		px := loX + rng.Float64()*(hiX-loX)
		py := loY + rng.Float64()*(hiY-loY)
		for i := 0; i < nc; i++ {
			a := float64(rng.Intn(7) - 3)
			b := float64(rng.Intn(7) - 3)
			if a == 0 && b == 0 {
				continue
			}
			c := a*px + b*py + rng.Float64()*4
			lines = append(lines, line{a, b, c})
			p.AddConstraint("c", []Term{{x, a}, {y, b}}, LE, c)
		}

		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v for feasible-by-construction LP", trial, sol.Status)
		}

		// Enumerate candidate vertices: intersections of all pairs of
		// boundary lines (constraints + 4 box sides).
		all := append([]line(nil), lines...)
		all = append(all,
			line{1, 0, hiX}, line{-1, 0, -loX},
			line{0, 1, hiY}, line{0, -1, -loY},
		)
		feasible := func(px, py float64) bool {
			if px < loX-1e-7 || px > hiX+1e-7 || py < loY-1e-7 || py > hiY+1e-7 {
				return false
			}
			for _, l := range lines {
				if l.a*px+l.b*py > l.c+1e-7 {
					return false
				}
			}
			return true
		}
		best := math.Inf(1)
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				det := all[i].a*all[j].b - all[j].a*all[i].b
				if math.Abs(det) < 1e-9 {
					continue
				}
				px := (all[i].c*all[j].b - all[j].c*all[i].b) / det
				py := (all[i].a*all[j].c - all[j].a*all[i].c) / det
				if feasible(px, py) {
					if v := cx*px + cy*py; v < best {
						best = v
					}
				}
			}
		}
		if math.IsInf(best, 1) {
			// No vertex found (degenerate); skip comparison.
			continue
		}
		if sol.Objective > best+1e-6 {
			t.Fatalf("trial %d: simplex %v worse than vertex optimum %v", trial, sol.Objective, best)
		}
		if sol.Objective < best-1e-6 {
			t.Fatalf("trial %d: simplex %v better than vertex optimum %v (infeasible?) viol=%v",
				trial, sol.Objective, best, p.MaxViolation(sol.X))
		}
	}
}

func TestMaximizeWithPhase1(t *testing.T) {
	// max x + y s.t. x + y >= 2, x + 2y <= 10, x,y in [0, 6].
	// Optimum pushes to the x+2y boundary: x=6, y=2 -> 8.
	p := NewProblem()
	p.SetMaximize(true)
	x := p.AddVariable("x", 0, 6, 1)
	y := p.AddVariable("y", 0, 6, 1)
	p.AddConstraint("lo", []Term{{x, 1}, {y, 1}}, GE, 2)
	p.AddConstraint("hi", []Term{{x, 1}, {y, 2}}, LE, 10)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireStatus(t, sol, StatusOptimal)
	almostEq(t, sol.Objective, 8, 1e-7, "objective")
}

func TestAllEqualitySquareSystem(t *testing.T) {
	// x + y = 5, x - y = 1 -> x=3, y=2; objective irrelevant (unique point).
	p := NewProblem()
	x := p.AddVariable("x", -10, 10, 7)
	y := p.AddVariable("y", -10, 10, -3)
	p.AddConstraint("s", []Term{{x, 1}, {y, 1}}, EQ, 5)
	p.AddConstraint("d", []Term{{x, 1}, {y, -1}}, EQ, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireStatus(t, sol, StatusOptimal)
	almostEq(t, sol.Value(x), 3, 1e-7, "x")
	almostEq(t, sol.Value(y), 2, 1e-7, "y")
}

func TestResidualAndMaxViolation(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 10, 1)
	le := p.AddConstraint("le", []Term{{x, 2}}, LE, 6)
	ge := p.AddConstraint("ge", []Term{{x, 1}}, GE, 2)
	eq := p.AddConstraint("eq", []Term{{x, 1}}, EQ, 3)
	pt := []float64{4}
	if r := p.Residual(le, pt); math.Abs(r-2) > 1e-12 { // 8 <= 6 violated by 2
		t.Fatalf("LE residual = %v", r)
	}
	if r := p.Residual(ge, pt); math.Abs(r-(-2)) > 1e-12 { // satisfied by slack 2
		t.Fatalf("GE residual = %v", r)
	}
	if r := p.Residual(eq, pt); math.Abs(r-1) > 1e-12 {
		t.Fatalf("EQ residual = %v", r)
	}
	if v := p.MaxViolation(pt); math.Abs(v-2) > 1e-12 {
		t.Fatalf("max violation = %v", v)
	}
	if v := p.MaxViolation([]float64{12}); math.Abs(v-18) > 1e-12 { // 2x=24 > 6 by 18, bound by 2
		t.Fatalf("bound violation = %v", v)
	}
}

func TestStressManyBoundFlips(t *testing.T) {
	// A problem engineered so the optimum has most variables at their
	// upper bound and one basic at 0.5: min -sum(x_i) s.t.
	// sum(x_i) <= n-0.5, x_i in [0, 1].
	const n = 40
	p := NewProblem()
	terms := make([]Term, n)
	for i := 0; i < n; i++ {
		v := p.AddVariable("x", 0, 1, -1)
		terms[i] = Term{Var: v, Coef: 1}
	}
	p.AddConstraint("cap", terms, LE, n-0.5)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireStatus(t, sol, StatusOptimal)
	almostEq(t, sol.Objective, -(n - 0.5), 1e-6, "objective")
	if v := p.MaxViolation(sol.X); v > 1e-7 {
		t.Fatalf("violation %v", v)
	}
}

func TestSolutionValueAccessor(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 2, 2, 0)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value(x) != 2 {
		t.Fatalf("Value = %v", sol.Value(x))
	}
	if p.VarName(x) != "x" {
		t.Fatalf("VarName = %q", p.VarName(x))
	}
	if lo, hi := p.Bounds(x); lo != 2 || hi != 2 {
		t.Fatalf("Bounds = %v, %v", lo, hi)
	}
	if p.NumVariables() != 1 || p.NumConstraints() != 0 {
		t.Fatal("counts wrong")
	}
	if s := p.String(); s == "" {
		t.Fatal("empty String()")
	}
}
