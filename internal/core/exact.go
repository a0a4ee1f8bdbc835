package core

import (
	"context"
	"fmt"
	"time"

	"afp/internal/geom"
	"afp/internal/milp"
	"afp/internal/mipmodel"
	"afp/internal/netlist"
	"afp/internal/obs"
)

// FloorplanExact solves the paper's initial formulation (Section 2.3): a
// single mixed integer program over all K modules at once, with K(K-1)
// 0-1 variables. The paper shows this is practical only for small K
// (LINDO capped out around 10-12 modules) — which is exactly why
// successive augmentation exists — but for those sizes it yields the true
// optimum and quantifies the suboptimality of the greedy decomposition
// (see BenchmarkExactVsAugmentation).
//
// The result's Steps slice holds a single trace entry for the one solve.
func FloorplanExact(d *netlist.Design, cfg Config) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	c := cfg.withDefaults(d)
	n := len(d.Modules)
	res := &Result{Design: d, ChipWidth: c.ChipWidth}
	if n == 0 {
		return res, nil
	}

	spec := c.exactSpec(d)

	built, err := mipmodel.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("core: exact: %w", err)
	}
	//vet:allow ctxsolve -- FloorplanExact is the context-free entry point; the presolve span roots here
	c.presolve(context.Background(), built, 0)
	if err := c.auditStep(built, 0); err != nil {
		return nil, fmt.Errorf("core: exact: %w", err)
	}
	hintEnvs, rotated, dws := bottomLeftHint(spec, nil)
	opts := c.MILP
	opts.Incumbent = built.Hint(hintEnvs, rotated, dws)
	opts.Presolve = !c.NoPresolve
	opts.Obs = c.Obs
	opts.LP.Obs = c.Obs
	c.Obs.Emit(obs.Event{
		Kind: obs.KindStepStart, Binaries: len(built.Model.Ints),
	})
	mres := milp.Solve(built.Model, opts)
	if mres.X == nil {
		return nil, fmt.Errorf("core: exact: %v", mres.Status)
	}

	var envs []geom.Rect
	for _, p := range built.Decode(mres.X) {
		res.Placements = append(res.Placements, Placement{
			Index: p.Index, Env: p.Env, Mod: p.Mod, Rotated: p.Rotated,
		})
		envs = append(envs, p.Env)
	}
	res.Height = geom.NewSkyline(envs).MaxHeight()
	res.Steps = []StepTrace{{
		Added:      allIndices(n),
		Binaries:   len(built.Model.Ints),
		Nodes:      mres.Nodes,
		LPIters:    mres.LPIters,
		DualPivots: mres.DualPivots,
		Refactors:  mres.Refactorizations,
		Status:     mres.Status,
		Height:     res.Height,
		Elapsed:    time.Since(start),
	}}
	res.Elapsed = time.Since(start)
	c.Obs.Emit(obs.Event{
		Kind: obs.KindStepDone, Status: mres.Status.String(), Modules: n,
		Nodes: mres.Nodes, Iters: mres.LPIters, Obj: mres.Objective,
		Height: res.Height, DurUS: time.Since(start).Microseconds(),
	})

	if c.PostOptimize {
		iters := c.AdjustIterations
		if iters < 1 {
			iters = 1
		}
		opt, err := AdjustFloorplan(d, res, c, iters)
		if err != nil {
			return nil, fmt.Errorf("core: exact post-optimize: %w", err)
		}
		opt.Steps = res.Steps
		opt.Elapsed = time.Since(start)
		return opt, nil
	}
	return res, nil
}

// exactSpec builds the single-subproblem spec covering the whole design:
// the paper's initial formulation, also the model AuditDesign verifies.
func (c *Config) exactSpec(d *netlist.Design) *mipmodel.Spec {
	spec := &mipmodel.Spec{
		ChipWidth:  c.ChipWidth,
		Objective:  c.Objective,
		WireWeight: c.WireWeight,
		Linearize:  c.Linearize,
		BlanketM:   c.NoPresolve,
	}
	for i := range d.Modules {
		m := &d.Modules[i]
		padW, padH := c.pads(m)
		spec.New = append(spec.New, mipmodel.NewModule{Index: i, Mod: m, PadW: padW, PadH: padH})
	}
	if c.Objective == mipmodel.AreaWire {
		conn := d.Connectivity()
		spec.Conn = func(a, b int) float64 { return conn[a][b] }
	}
	if c.CriticalMaxLen > 0 {
		for _, net := range d.Nets {
			if !net.Critical {
				continue
			}
			for a := 0; a < len(net.Modules); a++ {
				for b := a + 1; b < len(net.Modules); b++ {
					spec.Critical = append(spec.Critical, mipmodel.CriticalPair{
						A: net.Modules[a], B: net.Modules[b], MaxLen: c.CriticalMaxLen,
					})
				}
			}
		}
	}
	return spec
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
