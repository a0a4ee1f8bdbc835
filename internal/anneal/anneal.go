// Package anneal implements the simulated-annealing baselines the
// paper's analytical method is measured against: one cooling loop over
// two floorplan representations.
//
//   - Floorplan anneals slicing floorplans, the Wong-Liu algorithm ("A
//     New Algorithm for Floorplan Design", DAC 1986) that was the state
//     of the art the paper positions itself against. Floorplans are
//     normalized Polish expressions over H/V cuts; moves M1/M2/M3
//     perturb the expression; module shapes are combined with
//     Stockmeyer-style shape curves.
//   - SeqPair anneals sequence pairs (Murata, Fujiyoshi, Nakatake,
//     Kajitani, "VLSI Module Placement Based on Rectangle-Packing by the
//     Sequence-Pair", 1995/1996). Like the paper's analytical method, and
//     unlike slicing, a sequence pair represents general packings, so it
//     brackets the reproduction from the modern metaheuristic side. It
//     post-dates the reproduced DAC 1990 paper and is provided as an
//     extension (see DESIGN.md).
//
// Each representation supplies only its state, moves, cost and decoder;
// the cooling schedule, the shape sampler, the fixed-width cost and the
// wirelength are shared.
package anneal

import (
	"context"
	"math"
	"math/rand"

	"afp/internal/core"
	"afp/internal/geom"
	"afp/internal/netlist"
	"afp/internal/obs"
)

// Config tunes both annealers.
type Config struct {
	// Seed drives all randomness; equal seeds give equal results.
	Seed int64
	// Lambda weighs wirelength against the shape cost (cost = shape cost
	// + Lambda * HPWL). Zero anneals on the shape cost alone.
	Lambda float64
	// MovesPerTemp is the number of attempted moves at each temperature.
	// Zero defaults to 30 * n.
	MovesPerTemp int
	// FixedWidth, when positive, anneals against a fixed chip width W
	// instead of free bounding area: the shape cost becomes the packing
	// height scaled by a quadratic penalty in the relative width excess
	// (h * max(w/W, 1)^2), so layouts wider than the chip are steered
	// inside before their height matters. Portfolio races set it so every
	// backend solves the same fixed-width instance.
	FixedWidth float64
	// Best, when set, is invoked with a freshly decoded floorplan every
	// time the search improves its best cost (including the initial
	// state) — the incremental-best reporting a portfolio racer uses to
	// publish incumbents while the schedule is still cooling. It is
	// called synchronously on the annealing goroutine and must not block
	// for long. A design with at most one module has a single state and
	// returns it without calling Best.
	Best func(*core.Result)
	// Obs receives one anneal.temp event per temperature step (current
	// temperature, acceptance stats, current and best cost). Nil disables
	// instrumentation at zero cost.
	Obs *obs.Observer
}

// The schedule and the shape sampling are fixed, not Config fields: no
// caller tunes them, and the values a knob would admit break the search.
// One flexible-module sample divides by zero in the sampler (NaN shapes),
// and a cooling rate of 1 never cools, so the schedule runs until a whole
// temperature rejects every move.
const (
	// flexSamples is the number of widths sampled per flexible module.
	flexSamples = 6
	// alpha is the geometric cooling rate.
	alpha = 0.85
	// minTempRatio ends the schedule once the temperature falls to this
	// fraction of the calibrated starting temperature.
	minTempRatio = 1e-4
)

// representation is one floorplan encoding the cooling loop anneals over.
// A state is never changed once built: perturb returns a fresh one, so
// the loop keeps its current and best states without copying them.
type representation[S any] interface {
	// perturb applies one random move to s; false means the drawn move
	// could not apply and no state was made.
	perturb(s S) (S, bool)
	// cost scores s: the shape cost of its bounding box plus Lambda
	// times its wirelength.
	cost(s S) float64
	// decode realizes s as a floorplan.
	decode(s S) *core.Result
}

// base holds what both representations read: the design, the settings,
// the run's random source and each module's sampled shapes.
type base struct {
	d      *netlist.Design
	cfg    Config
	rng    *rand.Rand
	shapes [][]shape
}

// shape is one realizable (w, h) of a module.
type shape struct {
	w, h    float64
	rotated bool
}

// sampleShapes lists each module's shape options: flexSamples widths
// spread evenly over a flexible module's range, or a rigid module's own
// shape followed by its rotation when it is rotatable.
func sampleShapes(d *netlist.Design) [][]shape {
	out := make([][]shape, len(d.Modules))
	for i := range d.Modules {
		m := &d.Modules[i]
		var ss []shape
		switch m.Kind {
		case netlist.Flexible:
			wmin, wmax := m.WidthRange()
			for k := 0; k < flexSamples; k++ {
				f := float64(k) / float64(flexSamples-1)
				w := wmin + f*(wmax-wmin)
				ss = append(ss, shape{w: w, h: m.Area / w})
			}
		default:
			ss = append(ss, shape{w: m.W, h: m.H})
			// Rotation only yields a distinct shape when the sides differ by
			// more than the geometric tolerance.
			if m.Rotatable && !geom.Eq(m.W, m.H) {
				ss = append(ss, shape{w: m.H, h: m.W, rotated: true})
			}
		}
		out[i] = ss
	}
	return out
}

// shapeCost scores a bounding shape: area in free-width mode, height
// scaled by a quadratic excess-width penalty in fixed-width mode (see
// Config.FixedWidth).
func (b *base) shapeCost(w, h float64) float64 {
	if fw := b.cfg.FixedWidth; fw > 0 {
		over := math.Max(w/fw, 1)
		return h * over * over
	}
	return w * h
}

// solve validates d and anneals it in the representation newRep builds
// around the shared base, drawing every random number from one source
// seeded with cfg.Seed+seedOffset. A design with at most one module has
// a single state, which is decoded and returned at once.
func solve[S any](ctx context.Context, d *netlist.Design, cfg Config, source string, seedOffset int64,
	newRep func(*base) (representation[S], S)) (*core.Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := len(d.Modules)
	if n == 0 {
		return &core.Result{Design: d, Source: source}, nil
	}
	if cfg.MovesPerTemp <= 0 {
		cfg.MovesPerTemp = 30 * n
	}
	b := &base{d: d, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed + seedOffset)), shapes: sampleShapes(d)}
	r, cur := newRep(b)
	if n == 1 {
		return r.decode(cur), nil
	}
	return cool(ctx, b, r, cur)
}

// cool is the cooling loop: Metropolis acceptance at geometrically
// falling temperatures from a calibrated start, MovesPerTemp moves per
// temperature, until the temperature reaches minTempRatio of the start
// or a whole temperature accepts no move. Cancellation is polled every
// 64 moves and returns the best state so far with ctx.Err().
func cool[S any](ctx context.Context, b *base, r representation[S], cur S) (*core.Result, error) {
	cfg := &b.cfg
	curCost := r.cost(cur)
	best, bestCost := cur, curCost
	if cfg.Best != nil {
		cfg.Best(r.decode(best))
	}

	t0 := calibrate(r, cur, curCost)
	done := ctx.Done()
	for T := t0; T > t0*minTempRatio; T *= alpha {
		accepted := 0
		for mv := 0; mv < cfg.MovesPerTemp; mv++ {
			if done != nil && mv&63 == 0 {
				select {
				case <-done:
					return r.decode(best), ctx.Err()
				default:
				}
			}
			next, ok := r.perturb(cur)
			if !ok {
				continue
			}
			c := r.cost(next)
			if delta := c - curCost; delta <= 0 || b.rng.Float64() < math.Exp(-delta/T) {
				cur, curCost = next, c
				accepted++
				if c < bestCost {
					best, bestCost = cur, c
					if cfg.Best != nil {
						cfg.Best(r.decode(best))
					}
				}
			}
		}
		cfg.Obs.Emit(obs.Event{
			Kind: obs.KindAnnealTemp, Temp: T, Accepted: accepted,
			Attempted: cfg.MovesPerTemp, Obj: curCost, Bound: bestCost,
		})
		if accepted == 0 {
			break
		}
	}
	return r.decode(best), nil
}

// calibrate estimates the starting temperature from the mean uphill
// delta over a walk of 50 random moves (the standard Wong-Liu recipe).
func calibrate[S any](r representation[S], cur S, curCost float64) float64 {
	var up, cnt float64
	for i := 0; i < 50; i++ {
		next, ok := r.perturb(cur)
		if !ok {
			continue
		}
		c := r.cost(next)
		if dd := c - curCost; dd > 0 {
			up += dd
			cnt++
		}
		cur, curCost = next, c
	}
	if cnt == 0 {
		return 1
	}
	return -(up / cnt) / math.Log(0.85) // initial acceptance ratio ~0.85
}
