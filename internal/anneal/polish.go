package anneal

import (
	"fmt"
	"math"
)

// Token values: non-negative ints are operand (module) indices; opH and
// opV are the slicing operators.
const (
	opH = -1 // horizontal cut: left subfloorplan below right (heights add)
	opV = -2 // vertical cut: left subfloorplan left of right (widths add)
)

func isOperator(t int) bool { return t < 0 }

// validExpr checks that expr is a Polish expression over n operands with
// the balloting property, each operand exactly once, and normalization
// (no two adjacent identical operators).
func validExpr(expr []int, n int) error {
	if len(expr) != 2*n-1 {
		return fmt.Errorf("anneal: expression length %d, want %d", len(expr), 2*n-1)
	}
	seen := make([]bool, n)
	operands, operators := 0, 0
	for i, t := range expr {
		if isOperator(t) {
			if t != opH && t != opV {
				return fmt.Errorf("anneal: bad token %d", t)
			}
			operators++
			if operators >= operands {
				return fmt.Errorf("anneal: balloting violated at %d", i)
			}
			if i > 0 && expr[i-1] == t {
				return fmt.Errorf("anneal: not normalized at %d", i)
			}
		} else {
			if t >= n || seen[t] {
				return fmt.Errorf("anneal: operand %d invalid or repeated", t)
			}
			seen[t] = true
			operands++
		}
	}
	if operands != n || operators != n-1 {
		return fmt.Errorf("anneal: %d operands, %d operators", operands, operators)
	}
	return nil
}

// initialExpr returns the canonical starting expression
// 0 1 V 2 V 3 V ... (all modules in one row).
func initialExpr(n int) []int {
	expr := make([]int, 0, 2*n-1)
	expr = append(expr, 0)
	for i := 1; i < n; i++ {
		expr = append(expr, i, opV)
	}
	return expr
}

// shapePoint is one realizable (w, h) of a subfloorplan, with back
// pointers to the child points that realize it.
type shapePoint struct {
	w, h    float64
	li, ri  int  // child point indices (-1 for leaves)
	rotated bool // a leaf's module is turned by 90 degrees
}

// combine merges two shape curves under an operator, keeping only
// non-dominated points. Curves are kept sorted by increasing width
// (and therefore decreasing height).
func combine(op int, l, r []shapePoint) []shapePoint {
	out := make([]shapePoint, 0, len(l)*len(r))
	if op == opV {
		// Widths add, heights max. For each pair we could emit a point, but
		// the classic O(|l|+|r|) merge over sorted curves suffices for the
		// Pareto set.
		for i := range l {
			for j := range r {
				out = append(out, shapePoint{
					w: l[i].w + r[j].w, h: math.Max(l[i].h, r[j].h), li: i, ri: j,
				})
			}
		}
	} else {
		for i := range l {
			for j := range r {
				out = append(out, shapePoint{
					w: math.Max(l[i].w, r[j].w), h: l[i].h + r[j].h, li: i, ri: j,
				})
			}
		}
	}
	return pareto(out)
}

// pareto filters pts in place to the non-dominated frontier, sorted by
// width; callers pass a slice of their own.
func pareto(pts []shapePoint) []shapePoint {
	if len(pts) <= 1 {
		return pts
	}
	// Sort by width asc, height asc (insertion into a small slice; curves
	// stay short because of pruning).
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && (pts[j].w < pts[j-1].w ||
			//vet:allow toleq -- exact lexicographic tie keeps the sort a total order
			(pts[j].w == pts[j-1].w && pts[j].h < pts[j-1].h)); j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	out := pts[:0]
	bestH := math.Inf(1)
	for _, p := range pts {
		if p.h < bestH-1e-12 {
			out = append(out, p)
			bestH = p.h
		}
	}
	return out
}
