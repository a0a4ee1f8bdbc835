package anneal

import (
	"context"

	"afp/internal/core"
	"afp/internal/geom"
	"afp/internal/netlist"
	"afp/internal/obs"
)

// SeqPair runs simulated annealing over sequence pairs and returns the
// best packing found.
func SeqPair(d *netlist.Design, cfg Config) (*core.Result, error) {
	return SeqPairCtx(context.Background(), d, cfg)
}

// SeqPairCtx is SeqPair under a context, with FloorplanCtx's
// cancellation and partial-result convention. The whole run is wrapped
// in a "seqpair" span so portfolio traces attribute time per backend.
func SeqPairCtx(ctx context.Context, d *netlist.Design, cfg Config) (res *core.Result, err error) {
	cfg.Obs.Do(ctx, "seqpair", obs.SpanAttrs{Detail: d.Name}, func(ctx context.Context) {
		res, err = solve(ctx, d, cfg, "seqpair", 54321, newSeqPair)
	})
	return res, err
}

// spState is one sequence-pair configuration.
type spState struct {
	gp, gn []int // Gamma+ and Gamma- permutations (module indices)
	shp    []int // selected shape index per module
}

func (s spState) clone() spState {
	return spState{
		gp:  append([]int(nil), s.gp...),
		gn:  append([]int(nil), s.gn...),
		shp: append([]int(nil), s.shp...),
	}
}

// seqPair is the Murata et al. representation, decoded by the O(n^2)
// longest-path packer.
type seqPair struct {
	*base
	posP []int // position of each module in gp
	posN []int // position of each module in gn
}

// newSeqPair starts from the identity pair, every module in its first
// shape: all modules in one row.
func newSeqPair(b *base) (representation[spState], spState) {
	n := len(b.d.Modules)
	s := spState{gp: make([]int, n), gn: make([]int, n), shp: make([]int, n)}
	for i := 0; i < n; i++ {
		s.gp[i] = i
		s.gn[i] = i
	}
	return &seqPair{base: b, posP: make([]int, n), posN: make([]int, n)}, s
}

// perturb applies one of the classic sequence-pair moves: swap two
// modules in Gamma+ only, swap in both sequences, or change one module's
// shape.
func (a *seqPair) perturb(s spState) (spState, bool) {
	next := s.clone()
	n := len(next.gp)
	switch a.rng.Intn(3) {
	case 0:
		i, j := a.rng.Intn(n), a.rng.Intn(n)
		next.gp[i], next.gp[j] = next.gp[j], next.gp[i]
	case 1:
		m1, m2 := a.rng.Intn(n), a.rng.Intn(n)
		swapIn(next.gp, m1, m2)
		swapIn(next.gn, m1, m2)
	default:
		m := a.rng.Intn(n)
		if k := len(a.shapes[m]); k > 1 {
			next.shp[m] = (next.shp[m] + 1 + a.rng.Intn(k-1)) % k
		}
	}
	return next, true
}

// swapIn exchanges the positions of module values m1 and m2 in perm.
func swapIn(perm []int, m1, m2 int) {
	var i1, i2 int
	for i, v := range perm {
		if v == m1 {
			i1 = i
		}
		if v == m2 {
			i2 = i
		}
	}
	perm[i1], perm[i2] = perm[i2], perm[i1]
}

// place computes the packing of a state: the classic O(n^2) longest-path
// evaluation. Module b sits right of a when a precedes b in both
// sequences; above a when a succeeds b in Gamma+ but precedes it in
// Gamma-.
func (a *seqPair) place(s spState) ([]geom.Rect, float64, float64) {
	n := len(s.gp)
	for i, m := range s.gp {
		a.posP[m] = i
	}
	for i, m := range s.gn {
		a.posN[m] = i
	}
	rects := make([]geom.Rect, n)
	var W, H float64
	// Processing in Gamma- order is a valid topological order for both
	// the left-of and below relations.
	for _, b := range s.gn {
		sb := a.shapes[b][s.shp[b]]
		var x, y float64
		for _, m := range s.gn[:a.posN[b]] {
			sm := a.shapes[m][s.shp[m]]
			if a.posP[m] < a.posP[b] { // m left of b
				if r := rects[m].X + sm.w; r > x {
					x = r
				}
			} else { // m below b
				if t := rects[m].Y + sm.h; t > y {
					y = t
				}
			}
		}
		rects[b] = geom.NewRect(x, y, sb.w, sb.h)
		if x+sb.w > W {
			W = x + sb.w
		}
		if y+sb.h > H {
			H = y + sb.h
		}
	}
	return rects, W, H
}

func (a *seqPair) cost(s spState) float64 {
	rects, W, H := a.place(s)
	c := a.shapeCost(W, H)
	if a.cfg.Lambda > 0 {
		c += a.cfg.Lambda * core.NetHPWL(a.d.Nets, func(i int) (float64, float64, bool) {
			return rects[i].CenterX(), rects[i].CenterY(), true
		})
	}
	return c
}

func (a *seqPair) decode(s spState) *core.Result {
	rects, W, H := a.place(s)
	res := &core.Result{Design: a.d, ChipWidth: W, Height: H, Source: "seqpair"}
	for m, r := range rects {
		res.Placements = append(res.Placements, core.Placement{
			Index: m, Env: r, Mod: r,
			Rotated: a.shapes[m][s.shp[m]].rotated,
		})
	}
	return res
}
