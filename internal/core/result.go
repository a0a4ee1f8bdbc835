// Package core implements the paper's primary contribution: floorplan
// design by successive augmentation of mixed-integer-programming
// subproblems (Figure 3 of Sutanthavibul, Shragowitz and Rosen, DAC 1990),
// plus the fixed-topology linear-programming optimizer of Section 2.5.
package core

import (
	"time"

	"afp/internal/geom"
	"afp/internal/milp"
	"afp/internal/netlist"
)

// Placement is the final position of one module.
type Placement struct {
	// Index is the module index in the design.
	Index int
	// Env is the occupied box including the routing envelope; all
	// non-overlap guarantees apply to Env.
	Env geom.Rect
	// Mod is the module proper inside Env.
	Mod geom.Rect
	// Rotated reports a 90-degree rotation of a rigid module.
	Rotated bool
}

// StepTrace records one successive-augmentation step for analysis and for
// the Figure 2/3 reproduction.
type StepTrace struct {
	Step      int
	Added     []int // design indices placed in this step
	Obstacles int   // covering rectangles (d) representing the partial floorplan
	Modules   int   // total modules represented by those rectangles
	Binaries  int   // 0-1 variables in the subproblem
	Nodes     int   // branch-and-bound nodes
	LPIters   int   // simplex iterations across all of the step's node solves
	// DualPivots and Refactors attribute the step's LP effort to the
	// sparse engine: warm-started dual simplex pivots and basis
	// refactorizations across all node solves. Zero when every solve
	// took the dense primal path.
	DualPivots int
	Refactors  int
	Status     milp.Status
	// IncumbentSource names who owned the step's best solution: "bb" for
	// the branch and bound itself (or its bottom-left hint), or a
	// portfolio label like "portfolio:anneal" when an externally-shared
	// incumbent dominated the step.
	IncumbentSource string
	// Gap is the step subproblem's relative MIP gap (+Inf when the step
	// stopped without a proven bound); nonzero gaps identify steps whose
	// node or time budget ran out before optimality.
	Gap     float64
	Height  float64 // partial floorplan height after the step
	Elapsed time.Duration
	// Relaxed reports that the step's critical-net length constraints were
	// dropped because they made the subproblem infeasible.
	Relaxed bool
}

// Result is a complete floorplan.
type Result struct {
	Design     *netlist.Design
	ChipWidth  float64
	Height     float64
	Placements []Placement // one per module, in placement order
	Steps      []StepTrace
	Elapsed    time.Duration
	// Source names the solution paradigm that produced the floorplan:
	// "bb" for the successive-augmentation branch and bound, "anneal",
	// "seqpair" or "project" for the standalone heuristics, and
	// "portfolio:<backend>" for a portfolio race's winning contestant.
	Source string
}

// ChipArea returns the chip area W*H.
func (r *Result) ChipArea() float64 { return r.ChipWidth * r.Height }

// Utilization returns total module area divided by chip area, the "area
// utilization" percentage of Tables 1 and 2.
func (r *Result) Utilization() float64 {
	a := r.ChipArea()
	if a <= 0 {
		return 0
	}
	return r.Design.TotalArea() / a
}

// PlacementOf returns the placement of the module with the given design
// index, or nil.
func (r *Result) PlacementOf(index int) *Placement {
	for i := range r.Placements {
		if r.Placements[i].Index == index {
			return &r.Placements[i]
		}
	}
	return nil
}

// Envelopes returns the envelope rectangles of all placements.
func (r *Result) Envelopes() []geom.Rect {
	out := make([]geom.Rect, len(r.Placements))
	for i, p := range r.Placements {
		out[i] = p.Env
	}
	return out
}

// HPWL returns the total half-perimeter wirelength over all nets, using
// module centers as pin positions and net weights as multipliers. It is
// the placement-level wirelength estimate used by the Table 2 experiments
// (the global router of package route refines it).
func (r *Result) HPWL() float64 {
	pos := make(map[int][2]float64, len(r.Placements))
	for _, p := range r.Placements {
		pos[p.Index] = [2]float64{p.Mod.CenterX(), p.Mod.CenterY()}
	}
	return NetHPWL(r.Design.Nets, func(i int) (x, y float64, ok bool) {
		c, ok := pos[i]
		return c[0], c[1], ok
	})
}

// NetHPWL is HPWL's measure for a layout held outside a Result: the
// weighted half-perimeter wirelength of nets with module i's pin at
// center(i), skipping the modules for which center reports false. The
// sequence-pair annealer scores every move with it without building a
// Result.
func NetHPWL(nets []netlist.Net, center func(i int) (x, y float64, ok bool)) float64 {
	var total float64
	for _, net := range nets {
		w := net.Weight
		if w == 0 {
			w = 1
		}
		first := true
		var minX, maxX, minY, maxY float64
		for _, mi := range net.Modules {
			x, y, ok := center(mi)
			if !ok {
				continue
			}
			if first {
				minX, maxX, minY, maxY = x, x, y, y
				first = false
				continue
			}
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
		}
		if !first {
			total += w * ((maxX - minX) + (maxY - minY))
		}
	}
	return total
}

// Overlaps reports whether any pair of placed envelopes overlaps by more
// than the solver tolerance; a valid floorplan returns false.
func (r *Result) Overlaps() bool {
	_, _, bad := geom.AnyOverlapTol(r.Envelopes(), geom.Tol)
	return bad
}
