package anneal

import (
	"context"
	"math"

	"afp/internal/core"
	"afp/internal/geom"
	"afp/internal/netlist"
	"afp/internal/obs"
)

// Floorplan runs simulated annealing over normalized Polish expressions
// and returns the best floorplan found as a core.Result (ChipWidth is the
// bounding width of the slicing floorplan).
func Floorplan(d *netlist.Design, cfg Config) (*core.Result, error) {
	return FloorplanCtx(context.Background(), d, cfg)
}

// FloorplanCtx is Floorplan under a context. Cancellation (or a context
// deadline) stops the cooling schedule within a few moves; the best
// floorplan found so far is returned together with ctx.Err(), matching
// core.FloorplanCtx's partial-result convention — annealing always has
// an incumbent after the initial expression, so the result is usable.
// The whole run is wrapped in an "anneal" span so portfolio traces
// attribute time per backend.
func FloorplanCtx(ctx context.Context, d *netlist.Design, cfg Config) (res *core.Result, err error) {
	cfg.Obs.Do(ctx, "anneal", obs.SpanAttrs{Detail: d.Name}, func(ctx context.Context) {
		res, err = solve(ctx, d, cfg, "anneal", 12345, newSlicing)
	})
	return res, err
}

// slicing is the Wong-Liu representation: a state is a normalized Polish
// expression, evaluated over each module's Pareto shape curve.
type slicing struct {
	*base
	leaves [][]shapePoint
}

// newSlicing starts from all modules in one row, 0 1 V 2 V 3 V ...
func newSlicing(b *base) (representation[[]int], []int) {
	return &slicing{base: b, leaves: leafCurves(b.shapes)}, initialExpr(len(b.d.Modules))
}

// leafCurves turns each module's sampled shapes into its Pareto shape
// curve.
func leafCurves(shapes [][]shape) [][]shapePoint {
	out := make([][]shapePoint, len(shapes))
	for i, ss := range shapes {
		pts := make([]shapePoint, len(ss))
		for k, s := range ss {
			pts[k] = shapePoint{w: s.w, h: s.h, li: -1, ri: -1, rotated: s.rotated}
		}
		out[i] = pareto(pts)
	}
	return out
}

// perturb applies one of the Wong-Liu moves M1 (swap adjacent operands),
// M2 (complement an operator chain) or M3 (swap an operand with an
// adjacent operator), returning a fresh expression.
func (a *slicing) perturb(expr []int) ([]int, bool) {
	next := append([]int(nil), expr...)
	switch a.rng.Intn(3) {
	case 0:
		return next, a.moveM1(next)
	case 1:
		return next, a.moveM2(next)
	default:
		return next, a.moveM3(next)
	}
}

// moveM1 swaps two operands adjacent in the operand subsequence.
func (a *slicing) moveM1(expr []int) bool {
	var opIdx []int
	for i, t := range expr {
		if !isOperator(t) {
			opIdx = append(opIdx, i)
		}
	}
	if len(opIdx) < 2 {
		return false
	}
	k := a.rng.Intn(len(opIdx) - 1)
	i, j := opIdx[k], opIdx[k+1]
	expr[i], expr[j] = expr[j], expr[i]
	return true
}

// moveM2 complements one maximal chain of operators.
func (a *slicing) moveM2(expr []int) bool {
	type chain struct{ s, e int }
	var chains []chain
	for i := 0; i < len(expr); {
		if isOperator(expr[i]) {
			s := i
			for i < len(expr) && isOperator(expr[i]) {
				i++
			}
			chains = append(chains, chain{s, i})
		} else {
			i++
		}
	}
	if len(chains) == 0 {
		return false
	}
	c := chains[a.rng.Intn(len(chains))]
	for i := c.s; i < c.e; i++ {
		if expr[i] == opH {
			expr[i] = opV
		} else {
			expr[i] = opH
		}
	}
	return true
}

// moveM3 swaps one adjacent operand-operator pair, keeping the expression
// a normalized Polish expression.
func (a *slicing) moveM3(expr []int) bool {
	n := (len(expr) + 1) / 2
	// Collect candidate positions and try them in random order.
	perm := a.rng.Perm(len(expr) - 1)
	for _, i := range perm {
		if isOperator(expr[i]) == isOperator(expr[i+1]) {
			continue
		}
		expr[i], expr[i+1] = expr[i+1], expr[i]
		if validExpr(expr, n) == nil {
			return true
		}
		expr[i], expr[i+1] = expr[i+1], expr[i] // undo
	}
	return false
}

// cost evaluates the best (shape cost + lambda*HPWL) over the shape
// curve of the expression.
func (a *slicing) cost(expr []int) float64 {
	res := a.decode(expr)
	c := a.shapeCost(res.ChipWidth, res.Height)
	if a.cfg.Lambda > 0 {
		c += a.cfg.Lambda * res.HPWL()
	}
	return c
}

// decode evaluates the expression's shape curve, picks the best final
// shape and extracts module rectangles.
func (a *slicing) decode(expr []int) *core.Result {
	type nodeCurve struct {
		curve []shapePoint
		op    int
		l, r  int // node indices in the eval forest (-1 leaf)
		leaf  int // module index for leaves
	}
	var nodes []nodeCurve
	var stack []int
	for _, t := range expr {
		if !isOperator(t) {
			nodes = append(nodes, nodeCurve{curve: a.leaves[t], l: -1, r: -1, leaf: t})
			stack = append(stack, len(nodes)-1)
			continue
		}
		rIdx := stack[len(stack)-1]
		lIdx := stack[len(stack)-2]
		stack = stack[:len(stack)-2]
		nodes = append(nodes, nodeCurve{
			curve: combine(t, nodes[lIdx].curve, nodes[rIdx].curve),
			op:    t, l: lIdx, r: rIdx,
		})
		stack = append(stack, len(nodes)-1)
	}
	root := stack[0]

	// Choose the best point of the root curve.
	bestK, bestC := 0, math.Inf(1)
	for k, p := range nodes[root].curve {
		c := a.shapeCost(p.w, p.h)
		if c < bestC {
			bestK, bestC = k, c
		}
	}

	res := &core.Result{Design: a.d, Source: "anneal"}
	// Recursive extraction of rectangles.
	var place func(ni, k int, x, y float64)
	place = func(ni, k int, x, y float64) {
		nd := &nodes[ni]
		p := nd.curve[k]
		if nd.l < 0 {
			r := geom.NewRect(x, y, p.w, p.h)
			res.Placements = append(res.Placements, core.Placement{
				Index: nd.leaf, Env: r, Mod: r, Rotated: p.rotated,
			})
			return
		}
		lp := nodes[nd.l].curve[p.li]
		if nd.op == opV {
			place(nd.l, p.li, x, y)
			place(nd.r, p.ri, x+lp.w, y)
		} else {
			place(nd.l, p.li, x, y)
			place(nd.r, p.ri, x, y+lp.h)
		}
	}
	rootPt := nodes[root].curve[bestK]
	place(root, bestK, 0, 0)
	res.ChipWidth = rootPt.w
	res.Height = rootPt.h
	return res
}
