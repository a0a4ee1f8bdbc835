package anneal

import (
	"math"
	"math/rand"
	"testing"

	"afp/internal/netlist"
)

func TestValidExpr(t *testing.T) {
	good := [][]int{
		{0},
		{0, 1, opV},
		{0, 1, opV, 2, opH},
		{0, 1, opH, 2, 3, opV, opH}, // adjacent different operators ok
	}
	for _, e := range good {
		n := (len(e) + 1) / 2
		if err := validExpr(e, n); err != nil {
			t.Errorf("validExpr(%v) = %v, want nil", e, err)
		}
	}
	bad := []struct {
		e []int
		n int
	}{
		{[]int{0, 1}, 2},                   // missing operator
		{[]int{0, opV, 1}, 2},              // balloting violated
		{[]int{0, 1, opV, 2, opV, opV}, 3}, // wrong length
		{[]int{0, 0, opV}, 2},              // repeated operand
		{[]int{0, 1, opH, 2, opH, 3, 9}, 4},
		{[]int{0, 1, 2, opV, opV}, 3}, // adjacent same operators
	}
	for _, c := range bad {
		if err := validExpr(c.e, c.n); err == nil {
			t.Errorf("validExpr(%v) succeeded, want error", c.e)
		}
	}
}

func TestInitialExpr(t *testing.T) {
	e := initialExpr(4)
	if err := validExpr(e, 4); err != nil {
		t.Fatal(err)
	}
}

func TestParetoFilter(t *testing.T) {
	pts := []shapePoint{{w: 1, h: 5}, {w: 2, h: 3}, {w: 3, h: 3}, {w: 4, h: 1}, {w: 5, h: 1}}
	out := pareto(pts)
	if len(out) != 3 {
		t.Fatalf("pareto kept %d points: %v", len(out), out)
	}
	for i := 1; i < len(out); i++ {
		if out[i].w <= out[i-1].w || out[i].h >= out[i-1].h {
			t.Fatalf("not a strict frontier: %v", out)
		}
	}
}

func TestCombine(t *testing.T) {
	l := []shapePoint{{w: 2, h: 3}}
	r := []shapePoint{{w: 1, h: 4}}
	v := combine(opV, l, r)
	if len(v) != 1 || v[0].w != 3 || v[0].h != 4 {
		t.Fatalf("V combine = %v", v)
	}
	h := combine(opH, l, r)
	if len(h) != 1 || h[0].w != 2 || h[0].h != 7 {
		t.Fatalf("H combine = %v", h)
	}
}

// newTestSlicing builds the slicing representation of d around a base
// seeded with seed.
func newTestSlicing(d *netlist.Design, cfg Config, seed int64) *slicing {
	b := &base{d: d, cfg: cfg, rng: rand.New(rand.NewSource(seed)), shapes: sampleShapes(d)}
	r, _ := newSlicing(b)
	return r.(*slicing)
}

func TestMovesPreserveValidity(t *testing.T) {
	a := newTestSlicing(netlist.Random(12, 4), Config{}, 9)
	expr := initialExpr(12)
	for i := 0; i < 500; i++ {
		next, ok := a.perturb(expr)
		if !ok {
			continue
		}
		if err := validExpr(next, 12); err != nil {
			t.Fatalf("move %d broke the expression: %v\n%v", i, err, next)
		}
		expr = next
	}
}

func TestSlicingCost(t *testing.T) {
	d := twoByTwo()
	// Row of four 2x2: 8x2 = 16.
	if c := newTestSlicing(d, Config{}, 1).cost(initialExpr(4)); math.Abs(c-16) > 1e-9 {
		t.Fatalf("cost = %v, want 16", c)
	}
	if err := validExpr([]int{0, 1}, len(d.Modules)); err == nil {
		t.Fatal("expected error for invalid expression")
	}
}
