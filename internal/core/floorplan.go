package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"afp/internal/geom"
	"afp/internal/milp"
	"afp/internal/mipmodel"
	"afp/internal/mipmodel/modelcheck"
	"afp/internal/netlist"
	"afp/internal/obs"
	"afp/internal/order"
)

// Config tunes the successive-augmentation floorplanner.
type Config struct {
	// ChipWidth fixes the chip width W (constraints (3)). Zero selects a
	// width automatically from the total module area.
	ChipWidth float64
	// GroupSize is the number of modules e added per augmentation step.
	// Zero defaults to 4. The paper recommends keeping each subproblem at
	// 10-12 placeable objects including covering rectangles.
	GroupSize int
	// SeedSize is the size of the first group (the "seed" of Figure 3).
	// Zero defaults to GroupSize.
	SeedSize int
	// Objective selects chip area or chip area plus wirelength (Table 2).
	Objective mipmodel.Objective
	// WireWeight is the wirelength lambda for the AreaWire objective.
	WireWeight float64
	// Ordering optionally fixes the module selection order; nil uses the
	// connectivity-based linear ordering of package order.
	Ordering []int
	// Envelopes enables routing envelopes (Section 3.2): each module is
	// padded per side proportionally to its pin count.
	Envelopes bool
	// PitchH and PitchV are the per-track routing pitches used for
	// envelope padding. Zero defaults to 0.1 layout units.
	PitchH, PitchV float64
	// Linearize selects the flexible-module approximation (default Secant,
	// which guarantees overlap-free results; see mipmodel).
	Linearize mipmodel.Linearization
	// MILP tunes the per-step branch-and-bound solver. Zero values select
	// defaults (30000 nodes, 20s per step).
	MILP milp.Options
	// Workers sets the branch-and-bound worker count of every MILP
	// subproblem (see milp.Options.Workers): 0 leaves the milp default
	// (one worker per CPU), 1 runs one deterministic worker, and values
	// above 1 parallelize each step's tree search. A non-zero
	// MILP.Workers takes precedence.
	Workers int
	// SweepWorkers bounds how many width trials FloorplanBestWidth runs
	// concurrently. 0 (the default) runs every factor at once; note each
	// trial multiplies by the per-solve Workers, so bounded sweeps keep
	// sweep×search from oversubscribing the host.
	SweepWorkers int
	// PostOptimize runs the Section 2.5 fixed-topology LP after the last
	// augmentation step ("adjust floorplan" of Figure 3).
	PostOptimize bool
	// AdjustIterations is the number of trust-region re-linearization
	// rounds of the post-optimization (see AdjustFloorplan). Values below
	// 1 default to 1 (a single fixed-topology LP); designs with flexible
	// modules benefit from 3-4 rounds.
	AdjustIterations int
	// NoCoveringRects disables the covering-rectangle reformulation and
	// presents every already-placed module to the subproblem individually.
	// This exists for the ablation benchmarks only: it reproduces the
	// naive formulation whose 0-1 variable count grows with the number of
	// placed modules, which Section 3.1 is designed to avoid.
	NoCoveringRects bool
	// OverlappingCovers uses the overlapping covering-rectangle variant
	// suggested at the end of Section 3.1, which usually summarizes the
	// partial floorplan with fewer (grounded, mutually overlapping)
	// rectangles than the disjoint edge-cut partition, further reducing
	// the 0-1 variable count per step.
	OverlappingCovers bool
	// CriticalMaxLen, when positive, bounds the center-to-center Manhattan
	// length of every pair of modules sharing a timing-critical net (the
	// "additional constraints on the length of critical nets" of Section
	// 2.2). Steps whose constraints turn out infeasible are retried
	// without them and flagged Relaxed in the trace.
	CriticalMaxLen float64
	// NoPresolve disables the formulation strengthening of every step's
	// MILP: the per-row tightened big-M coefficients (mipmodel.Spec.
	// BlanketM), the geometric presolve pass (mipmodel.Built.Presolve) and
	// the branch-and-bound bound propagation (milp.Options.Presolve). The
	// optimum is identical either way — presolve only prunes the search —
	// so this is an escape hatch for debugging and A/B measurement.
	NoPresolve bool
	// Audit statically verifies every step's MILP with
	// mipmodel/modelcheck after presolve and before branch and bound,
	// failing the floorplan on any finding. The audit proves the pair
	// coverage, big-M redundancy and linearization-direction invariants of
	// the formulation (see DESIGN.md section 11); it costs a few
	// milliseconds per step and exists to catch formulation regressions,
	// so CLIs enable it together with -verify.
	Audit bool
	// Obs receives augmentation telemetry (step.start/step.done events)
	// and is threaded into the MILP and LP layers so a single sink sees
	// the whole solve. Nil (the default) disables instrumentation at no
	// cost.
	Obs *obs.Observer
}

func (c *Config) withDefaults(d *netlist.Design) Config {
	cfg := *c
	if cfg.GroupSize <= 0 {
		cfg.GroupSize = 4
	}
	if cfg.SeedSize <= 0 {
		cfg.SeedSize = cfg.GroupSize
	}
	if cfg.PitchH <= 0 {
		cfg.PitchH = 0.1
	}
	if cfg.PitchV <= 0 {
		cfg.PitchV = 0.1
	}
	if cfg.MILP.MaxNodes <= 0 {
		cfg.MILP.MaxNodes = 30000
	}
	if cfg.MILP.TimeLimit <= 0 {
		cfg.MILP.TimeLimit = 20 * time.Second
	}
	if cfg.MILP.Workers == 0 {
		cfg.MILP.Workers = cfg.Workers
	}
	if cfg.ChipWidth <= 0 {
		cfg.ChipWidth = autoWidth(d, &cfg)
	}
	return cfg
}

// pads returns the envelope paddings of module i under cfg.
func (c *Config) pads(m *netlist.Module) (padW, padH float64) {
	if !c.Envelopes {
		return 0, 0
	}
	padW = c.PitchV * float64(m.Pins[netlist.East]+m.Pins[netlist.West])
	padH = c.PitchH * float64(m.Pins[netlist.North]+m.Pins[netlist.South])
	return padW, padH
}

// autoWidth picks a chip width: slightly above the square-root of the
// total padded module area, but never below the widest module's minimal
// width.
func autoWidth(d *netlist.Design, cfg *Config) float64 {
	var area, minW float64
	for i := range d.Modules {
		m := &d.Modules[i]
		padW, padH := cfg.pads(m)
		wmin, wmax := m.WidthRange()
		h := m.HeightFor(wmax)
		area += (wmax + padW) * (h + padH)
		if w := wmin + padW; w > minW {
			minW = w
		}
	}
	w := math.Sqrt(area) * 1.05
	if w < minW {
		w = minW
	}
	return w
}

// Floorplan runs the successive-augmentation algorithm of Figure 3 on the
// design and returns the resulting floorplan.
func Floorplan(d *netlist.Design, cfg Config) (*Result, error) {
	return FloorplanCtx(context.Background(), d, cfg)
}

// FloorplanCtx is Floorplan under a context. Cancellation (or a context
// deadline) stops the augmentation between steps and aborts the running
// step's branch and bound, which itself returns its best incumbent. On
// cancellation the partial floorplan built so far — every module placed
// before the cut, including the interrupted step's incumbent when one
// was found — is returned TOGETHER with ctx.Err(), so callers can serve
// partial results against deadlines; callers that need an all-or-nothing
// answer should discard the result when err != nil.
func FloorplanCtx(ctx context.Context, d *netlist.Design, cfg Config) (res *Result, err error) {
	cfg.Obs.Do(ctx, "solve", obs.SpanAttrs{Detail: d.Name}, func(ctx context.Context) {
		res, err = floorplanCtx(ctx, d, cfg)
	})
	return res, err
}

// floorplanCtx is the augmentation loop proper, running inside
// FloorplanCtx's root "solve" span.
func floorplanCtx(ctx context.Context, d *netlist.Design, cfg Config) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	c := cfg.withDefaults(d)
	n := len(d.Modules)
	res := &Result{Design: d, ChipWidth: c.ChipWidth, Source: "bb"}
	if n == 0 {
		return res, nil
	}

	ord := c.Ordering
	if ord == nil {
		ord = order.Linear(d)
	}
	if len(ord) != n {
		return nil, fmt.Errorf("core: ordering has %d entries for %d modules", len(ord), n)
	}

	models := newStepModels(&c, d)

	// partial finalizes the result placed so far; it is what cancellation
	// returns alongside ctx.Err().
	var envs []geom.Rect // placed envelopes, in placement order
	partial := func() *Result {
		res.Height = geom.NewSkyline(envs).MaxHeight()
		res.Elapsed = time.Since(start)
		return res
	}

	pos := 0
	step := 0
	for pos < n {
		if err := ctx.Err(); err != nil {
			return partial(), err
		}
		e := c.GroupSize
		if step == 0 {
			e = c.SeedSize
		}
		if pos+e > n {
			e = n - pos
		}
		group := ord[pos : pos+e]

		// Each step runs inside its own "step" span (a child of the solve
		// span), so traces and CPU profiles segment per augmentation step.
		var stepRes *Result
		var stepErr error
		stop := false
		c.Obs.Do(ctx, "step", obs.SpanAttrs{Step: step}, func(ctx context.Context) {
			obstacles := geom.CoveringRectangles(envs)
			if c.OverlappingCovers {
				obstacles = geom.CoveringRectanglesOverlapping(envs)
			}
			if c.NoCoveringRects {
				obstacles = append([]geom.Rect(nil), envs...)
			}
			spec, built, err := models.build(ctx, step, group, obstacles, res.Placements, true)
			if err != nil {
				stepRes, stepErr = nil, fmt.Errorf("core: step %d: %w", step, err)
				stop = true
				return
			}

			// Seed branch and bound with a bottom-left packing of the group
			// (after presolve, so Hint sees the symmetry pinning).
			hintEnvs, rotated, dws := bottomLeftHint(spec, obstacles)
			opts := c.MILP
			opts.Incumbent = built.Hint(hintEnvs, rotated, dws)
			opts.Presolve = !c.NoPresolve
			opts.Obs = c.Obs
			opts.LP.Obs = c.Obs

			c.Obs.Emit(obs.Event{
				Kind: obs.KindStepStart, Step: step, Modules: pos,
				Covers: len(obstacles), Binaries: len(built.Model.Ints),
			})
			stepStart := time.Now()
			mres := milp.SolveCtx(ctx, built.Model, opts)
			relaxed := false
			if mres.X == nil && ctx.Err() != nil {
				stepRes, stepErr = partial(), ctx.Err()
				stop = true
				return
			}
			if mres.X == nil && len(spec.Critical) > 0 {
				// The timing bounds made this step infeasible (e.g. the partner
				// module was placed too far away in an earlier step): retry
				// without them, as the paper's method degrades these constraints
				// to objectives rather than failing the floorplan.
				relaxed = true
				spec, built, err = models.build(ctx, step, group, obstacles, res.Placements, false)
				if err != nil {
					stepRes, stepErr = nil, fmt.Errorf("core: step %d: %w", step, err)
					stop = true
					return
				}
				opts.Incumbent = built.Hint(hintEnvs, rotated, dws)
				mres = milp.SolveCtx(ctx, built.Model, opts)
			}
			if mres.X == nil {
				if err := ctx.Err(); err != nil {
					stepRes, stepErr = partial(), err
					stop = true
					return
				}
				stepRes, stepErr = nil, fmt.Errorf("core: step %d: subproblem %v (status %v)", step, spec, mres.Status)
				stop = true
				return
			}

			pls := built.Decode(mres.X)
			for _, p := range pls {
				res.Placements = append(res.Placements, Placement{
					Index: p.Index, Env: p.Env, Mod: p.Mod, Rotated: p.Rotated,
				})
				envs = append(envs, p.Env)
			}
			stepHeight := geom.NewSkyline(envs).MaxHeight()
			res.Steps = append(res.Steps, StepTrace{
				Step:       step,
				Added:      append([]int(nil), group...),
				Obstacles:  len(obstacles),
				Modules:    pos,
				Binaries:   len(built.Model.Ints),
				Nodes:      mres.Nodes,
				LPIters:    mres.LPIters,
				DualPivots: mres.DualPivots,
				Refactors:  mres.Refactorizations,
				Status:     mres.Status,
				Gap:        mres.Gap(),
				Height:     stepHeight,
				Elapsed:    time.Since(stepStart),
				Relaxed:    relaxed,
			})
			c.Obs.Emit(obs.Event{
				Kind: obs.KindStepDone, Step: step, Status: mres.Status.String(),
				Modules: e, Nodes: mres.Nodes, Iters: mres.LPIters,
				Obj: mres.Objective, Height: stepHeight, Relaxed: relaxed,
				DurUS: time.Since(stepStart).Microseconds(),
			})
		})
		if stop {
			return stepRes, stepErr
		}
		pos += e
		step++
	}

	res.Height = geom.NewSkyline(envs).MaxHeight()
	res.Elapsed = time.Since(start)

	if c.PostOptimize {
		iters := c.AdjustIterations
		if iters < 1 {
			iters = 1
		}
		var opt *Result
		var err error
		c.Obs.Do(ctx, "adjust", obs.SpanAttrs{Step: iters}, func(ctx context.Context) {
			opt, err = AdjustFloorplanCtx(ctx, d, res, c, iters)
		})
		if err != nil {
			if ctx.Err() != nil {
				// The adjustment LP was cut off: the un-adjusted floorplan is
				// complete and valid, so serve it as the partial result.
				return res, ctx.Err()
			}
			return nil, fmt.Errorf("core: post-optimize: %w", err)
		}
		opt.Steps = res.Steps
		opt.Source = res.Source
		opt.Elapsed = time.Since(start)
		return opt, nil
	}
	return res, nil
}

// stepModels builds every step's MILP from what the design contributes
// to each, derived once per solve: the module connectivity under the
// AreaWire objective and the module pairs sharing a critical net (the
// Section 2.2 timing constraints), deduplicated.
type stepModels struct {
	c    *Config
	d    *netlist.Design
	conn [][]float64
	crit [][2]int
}

func newStepModels(c *Config, d *netlist.Design) *stepModels {
	sm := &stepModels{c: c, d: d}
	if c.Objective == mipmodel.AreaWire {
		sm.conn = d.Connectivity()
	}
	if c.CriticalMaxLen <= 0 {
		return sm
	}
	seen := map[[2]int]bool{}
	for _, net := range d.Nets {
		if !net.Critical {
			continue
		}
		for a := 0; a < len(net.Modules); a++ {
			for b := a + 1; b < len(net.Modules); b++ {
				pair := [2]int{min(net.Modules[a], net.Modules[b]), max(net.Modules[a], net.Modules[b])}
				if !seen[pair] {
					seen[pair] = true
					sm.crit = append(sm.crit, pair)
				}
			}
		}
	}
	return sm
}

// build builds the MILP placing group above the obstacles, then
// presolves it and, under Config.Audit, audits it. With critical set the
// critical pairs touching the group bound their length; every placed
// module such a pair or, under AreaWire, a net of the group reaches is
// anchored at its center.
func (sm *stepModels) build(ctx context.Context, step int, group []int, obstacles []geom.Rect, placed []Placement, critical bool) (*mipmodel.Spec, *mipmodel.Built, error) {
	c := sm.c
	spec := &mipmodel.Spec{
		ChipWidth:  c.ChipWidth,
		Objective:  c.Objective,
		WireWeight: c.WireWeight,
		Linearize:  c.Linearize,
		Obstacles:  obstacles,
		BlanketM:   c.NoPresolve,
	}
	inGroup := make(map[int]bool, len(group))
	for _, mi := range group {
		m := &sm.d.Modules[mi]
		padW, padH := c.pads(m)
		spec.New = append(spec.New, mipmodel.NewModule{Index: mi, Mod: m, PadW: padW, PadH: padH})
		inGroup[mi] = true
	}
	needAnchor := map[int]bool{}
	for _, cp := range sm.crit {
		if critical && (inGroup[cp[0]] || inGroup[cp[1]]) {
			spec.Critical = append(spec.Critical,
				mipmodel.CriticalPair{A: cp[0], B: cp[1], MaxLen: c.CriticalMaxLen})
			needAnchor[cp[0]], needAnchor[cp[1]] = true, true
		}
	}
	if sm.conn != nil {
		spec.Conn = func(a, b int) float64 { return sm.conn[a][b] }
		for _, p := range placed {
			for _, mi := range group {
				if sm.conn[p.Index][mi] > 0 {
					needAnchor[p.Index] = true
					break
				}
			}
		}
	}
	for _, p := range placed {
		if needAnchor[p.Index] {
			spec.Anchors = append(spec.Anchors,
				mipmodel.Anchor{Index: p.Index, X: p.Mod.CenterX(), Y: p.Mod.CenterY()})
		}
	}

	built, err := mipmodel.Build(spec)
	if err != nil {
		return nil, nil, err
	}
	c.presolve(ctx, built, step)
	if c.Audit {
		if fs := modelcheck.Audit(built); len(fs) > 0 {
			return nil, nil, fmt.Errorf("model audit failed: %s", joinFindings(fs))
		}
	}
	return spec, built, nil
}

// presolve runs the geometric presolve pass on a built subproblem unless
// disabled, reporting the reductions through the observer.
func (c *Config) presolve(ctx context.Context, built *mipmodel.Built, step int) {
	if c.NoPresolve {
		return
	}
	var st mipmodel.PresolveStats
	c.Obs.Do(ctx, "presolve", obs.SpanAttrs{Step: step, Detail: "model"}, func(context.Context) {
		st = built.Presolve()
	})
	if c.Obs.Enabled() {
		c.Obs.Emit(obs.Event{
			Kind: obs.KindPresolve, Detail: "model", Step: step,
			Fixed: st.FixedBinaries, Tightened: st.TightenedBounds,
			MReduction: st.MReduction,
		})
	}
}

// bottomLeftHint builds a feasible packing of the group above the
// obstacles: modules in their default orientation, flexible modules at
// maximum width (dw = 0).
func bottomLeftHint(spec *mipmodel.Spec, obstacles []geom.Rect) (envsOut []geom.Rect, rotated []bool, dws []float64) {
	ws := make([]float64, len(spec.New))
	hs := make([]float64, len(spec.New))
	rotated = make([]bool, len(spec.New))
	dws = make([]float64, len(spec.New))
	for i := range spec.New {
		m := spec.New[i].Mod
		padW, padH := spec.New[i].PadW, spec.New[i].PadH
		switch m.Kind {
		case netlist.Flexible:
			// Maximum width (dw = 0), matching the model's default point.
			_, wmax := m.WidthRange()
			ws[i] = wmax + padW
			hs[i] = m.HeightFor(wmax) + padH
		default:
			ws[i] = m.W + padW
			hs[i] = m.H + padH
			if ws[i] > spec.ChipWidth && m.Rotatable {
				// Default orientation does not fit the chip: hint it rotated.
				rotated[i] = true
				ws[i], hs[i] = m.H+padH, m.W+padW
			}
		}
	}
	envsOut = bottomLeft(obstacles, ws, hs, spec.ChipWidth)
	return envsOut, rotated, dws
}
