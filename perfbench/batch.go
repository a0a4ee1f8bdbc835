package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"afp/internal/bench"
	"afp/internal/core"
	"afp/internal/geom"
	"afp/internal/milp"
	"afp/internal/mipmodel"
	"afp/internal/netlist"
	"afp/internal/obs"
	"afp/internal/route"
)

// pin holds the values a Workers:1 solve of one design must reproduce
// exactly. Zero fields are not checked.
type pin struct {
	nodes, dualPivots, refactors int
	height                       float64 // augmentation height, before adjust
	finalArea                    float64 // routed chip area, rounded to a unit
}

// batchWorkload runs designs one after another through the paper's
// pipeline, in whole passes over the design list.
type batchWorkload struct {
	name    string
	cfg     core.Config
	adjust  bool // run the §2.5 fixed-topology LP after augmentation
	route   bool // globally route the adjusted floorplan
	designs func(seed int64) []*netlist.Design
	pins    map[string]pin
}

// warmupDesign is pushed through every stage during set-up; it is none of
// the measured designs.
var warmupDesign = netlist.Random(10, 1001)

// quickMILP is the per-step budget of the paper's tables in quick mode.
func quickMILP() milp.Options { return milp.Options{MaxNodes: 600, TimeLimit: 2 * time.Second} }

var batchWorkloads = map[string]*batchWorkload{
	"table1": {
		name: "table1",
		cfg:  core.Config{GroupSize: 3, MILP: quickMILP(), Workers: 1},
		designs: func(seed int64) []*netlist.Design {
			ds := []*netlist.Design{
				netlist.Random(15, 1501), netlist.Random(20, 2001),
				netlist.Random(25, 2501), netlist.AMI33(),
			}
			// The seed only rotates the pass order; the designs are the
			// paper's Table 1 rows, so their counters stay pinned.
			k := rand.New(rand.NewSource(seed)).Intn(len(ds))
			return append(ds[k:], ds[:k]...)
		},
		pins: map[string]pin{
			"rand15": {nodes: 1944, dualPivots: 7347, refactors: 112, height: 86.6962278015672},
			"rand20": {nodes: 2679, dualPivots: 11520, refactors: 177, height: 90.59767730123137},
			"rand25": {nodes: 4274, dualPivots: 17725, refactors: 274, height: 113.56056754204128},
			"ami33":  {nodes: 5494, dualPivots: 22283, refactors: 341, height: 129.53706647493618},
		},
	},
	"areawire": {
		name: "areawire",
		cfg: core.Config{GroupSize: 3, MILP: quickMILP(), Workers: 1,
			Objective: mipmodel.AreaWire, WireWeight: 0.02},
		adjust:  true,
		designs: func(int64) []*netlist.Design { return []*netlist.Design{netlist.Random(20, 2001)} },
	},
	"route": {
		name:    "route",
		cfg:     core.Config{GroupSize: 3, MILP: quickMILP(), Workers: 1, Envelopes: true},
		adjust:  true,
		route:   true,
		designs: func(int64) []*netlist.Design { return []*netlist.Design{netlist.AMI33()} },
		pins:    map[string]pin{"ami33": {finalArea: 18497}},
	},
}

// solveOut is one design through every stage of a batch workload.
type solveOut struct {
	design    *netlist.Design
	dur       time.Duration
	placed    *core.Result // after augmentation
	final     *core.Result // after adjust, when the workload adjusts
	routed    *route.Result
	adjustDur time.Duration
	routeDur  time.Duration
}

// solve runs d through the workload's stages. o is nil on untraced runs.
// The adjust call is wrapped in an "adjust" span of o so the fold
// attributes its LP time.
func (w *batchWorkload) solve(ctx context.Context, d *netlist.Design, o *obs.Observer) (solveOut, error) {
	cfg := w.cfg
	cfg.Obs = o
	out := solveOut{design: d}
	start := time.Now()
	res, err := core.FloorplanCtx(ctx, d, cfg)
	if err != nil {
		return out, fmt.Errorf("%s: floorplan: %w", d.Name, err)
	}
	out.placed, out.final = res, res
	if w.adjust {
		t := time.Now()
		var adj *core.Result
		o.Do(ctx, "adjust", obs.SpanAttrs{Step: 1}, func(ctx context.Context) {
			adj, err = core.AdjustFloorplanCtx(ctx, d, res, cfg, 1)
		})
		out.adjustDur = time.Since(t)
		if err != nil {
			return out, fmt.Errorf("%s: adjust: %w", d.Name, err)
		}
		adj.Steps, adj.Source = res.Steps, res.Source
		out.final = adj
	}
	if w.route {
		t := time.Now()
		out.routed, err = route.Route(out.final, route.Config{Algorithm: route.WeightedShortestPath})
		out.routeDur = time.Since(t)
		if err != nil {
			return out, fmt.Errorf("%s: route: %w", d.Name, err)
		}
	}
	out.dur = time.Since(start)
	return out, nil
}

// check verifies one solve's output: a legal floorplan, and at
// Workers:1 the pinned counters and geometry.
func (w *batchWorkload) check(out solveOut) error {
	if v := out.final.Verify(); len(v) > 0 {
		return fmt.Errorf("%s: %d violations, first: %v", out.design.Name, len(v), v[0])
	}
	p, ok := w.pins[out.design.Name]
	if !ok {
		return nil
	}
	var nodes, pivots, refactors int
	for _, s := range out.placed.Steps {
		nodes += s.Nodes
		pivots += s.DualPivots
		refactors += s.Refactors
	}
	mismatch := func(what string, got, want float64) error {
		return fmt.Errorf("%s: %s %v, pinned %v", out.design.Name, what, got, want)
	}
	switch {
	case p.nodes != 0 && nodes != p.nodes:
		return mismatch("nodes", float64(nodes), float64(p.nodes))
	case p.dualPivots != 0 && pivots != p.dualPivots:
		return mismatch("dual pivots", float64(pivots), float64(p.dualPivots))
	case p.refactors != 0 && refactors != p.refactors:
		return mismatch("refactors", float64(refactors), float64(p.refactors))
	case p.height != 0 && math.Abs(out.placed.Height-p.height) > 1e-6*p.height:
		return mismatch("height", out.placed.Height, p.height)
	case p.finalArea != 0 && math.Round(out.routed.FinalArea()) != p.finalArea:
		return mismatch("final area", math.Round(out.routed.FinalArea()), p.finalArea)
	}
	return nil
}

// solved is what a run keeps of one checked solve: the numbers its
// metrics need. Dropping the floorplans keeps memory the benchmark itself
// retains out of peak_heap_mb.
type solved struct {
	design                   *netlist.Design
	dur, adjustDur, routeDur time.Duration
	util, hpwl, area         float64 // area: routed where the workload routes
	heightGainPct            float64 // by the adjust LP
	steps, proven            int
	obstacles, binaries      int
	nodes                    int
	wirelength, overflow     float64
	cover, build             time.Duration // replayed, traced phase only
}

func summarize(out solveOut) solved {
	s := solved{
		design: out.design, dur: out.dur, adjustDur: out.adjustDur, routeDur: out.routeDur,
		util: 100 * out.final.Utilization(), hpwl: out.final.HPWL(), area: out.final.ChipArea(),
		heightGainPct: 100 * (out.placed.Height - out.final.Height) / out.placed.Height,
	}
	if out.routed != nil {
		s.area = out.routed.FinalArea()
		s.wirelength, s.overflow = out.routed.Wirelength, float64(out.routed.Overflow)
	}
	for _, st := range out.placed.Steps {
		s.steps++
		s.obstacles += st.Obstacles
		s.binaries += st.Binaries
		s.nodes += st.Nodes
		if st.Status == milp.StatusOptimal {
			s.proven++
		}
	}
	return s
}

// phase is the outcome of one timed loop over the designs.
type phase struct {
	outs     []solved
	elapsed  time.Duration
	failures []string
	attempts int
}

// measure runs whole passes over designs until at least budget has
// elapsed, checking every output. On a traced phase (o != nil) it also
// replays each solve's cover and build steps, outside the solve's time.
func (w *batchWorkload) measure(ctx context.Context, designs []*netlist.Design, budget time.Duration, o *obs.Observer) phase {
	var ph phase
	start := time.Now()
	for {
		for _, d := range designs {
			ph.attempts++
			out, err := w.solve(ctx, d, o)
			if err == nil {
				err = w.check(out)
			}
			var cover, build time.Duration
			if err == nil && o != nil {
				cover, build, err = w.replay(d, out.placed)
			}
			if err != nil {
				ph.failures = append(ph.failures, err.Error())
				continue
			}
			s := summarize(out)
			s.cover, s.build = cover, build
			ph.outs = append(ph.outs, s)
		}
		if time.Since(start) >= budget {
			break
		}
	}
	ph.elapsed = time.Since(start)
	return ph
}

// replay re-runs the covering-rectangle partition and the model build of
// every augmentation step of a finished solve, timing each layer on its
// own. It rebuilds each step's Spec the way core does and fails when the
// rebuilt model's 0-1 variable count differs from the step's record.
func (w *batchWorkload) replay(d *netlist.Design, res *core.Result) (cover, build time.Duration, err error) {
	cfg := w.cfg
	pitchH, pitchV := cfg.PitchH, cfg.PitchV
	if pitchH <= 0 {
		pitchH = 0.1
	}
	if pitchV <= 0 {
		pitchV = 0.1
	}
	var conn [][]float64
	if cfg.Objective == mipmodel.AreaWire {
		conn = d.Connectivity()
	}
	envs := res.Envelopes()
	pos := 0
	for _, st := range res.Steps {
		t := time.Now()
		obstacles := geom.CoveringRectangles(envs[:pos])
		cover += time.Since(t)
		spec := &mipmodel.Spec{
			ChipWidth: res.ChipWidth, Objective: cfg.Objective, WireWeight: cfg.WireWeight,
			Linearize: cfg.Linearize, Obstacles: obstacles,
		}
		for _, mi := range st.Added {
			m := &d.Modules[mi]
			var padW, padH float64
			if cfg.Envelopes {
				padW = pitchV * float64(m.Pins[netlist.East]+m.Pins[netlist.West])
				padH = pitchH * float64(m.Pins[netlist.North]+m.Pins[netlist.South])
			}
			spec.New = append(spec.New, mipmodel.NewModule{Index: mi, Mod: m, PadW: padW, PadH: padH})
		}
		if conn != nil {
			spec.Conn = func(a, b int) float64 { return conn[a][b] }
			for _, p := range res.Placements[:pos] {
				for _, mi := range st.Added {
					if conn[p.Index][mi] > 0 {
						spec.Anchors = append(spec.Anchors,
							mipmodel.Anchor{Index: p.Index, X: p.Mod.CenterX(), Y: p.Mod.CenterY()})
						break
					}
				}
			}
		}
		t = time.Now()
		built, err := mipmodel.Build(spec)
		build += time.Since(t)
		if err != nil {
			return cover, build, fmt.Errorf("%s: replay step %d: %w", d.Name, st.Step, err)
		}
		if got := len(built.Model.Ints); got != st.Binaries {
			return cover, build, fmt.Errorf("%s: replay step %d built %d binaries, solve had %d", d.Name, st.Step, got, st.Binaries)
		}
		pos += len(st.Added)
	}
	return cover, build, nil
}

// runBatch executes one batch workload run and returns its report.
func runBatch(w *batchWorkload, a args, processStart time.Time) *report {
	ctx := context.Background()
	rep := newReport(w.name, a)

	// Set-up: generate the designs and push one small design through every
	// stage, setupReps times; the first repetition also pays process start.
	var designs []*netlist.Design
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if i == 0 {
			t = processStart
		}
		designs = w.designs(a.seed)
		if _, err := w.solve(ctx, warmupDesign, nil); err != nil {
			rep.fail("warm-up: " + err.Error())
			return rep
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	rep.setup(setups)

	plain := w.measure(ctx, designs, a.seconds, nil)
	rep.addPhase(plain.attempts, plain.failures)
	times := solveTimes(plain.outs)
	rep.samples["solve_ms"] = len(times)

	if !a.trace {
		var util, hpwl, area []float64
		for _, o := range plain.outs {
			util = append(util, o.util)
			hpwl = append(hpwl, o.hpwl)
			area = append(area, o.area)
		}
		rep.endToEnd(times, plain.elapsed, mean(util), mean(hpwl), mean(area))
		return rep
	}

	fold := NewFold()
	traced := w.measure(ctx, designs, a.seconds, obs.New(fold))
	rep.addPhase(traced.attempts, traced.failures)
	n := float64(len(traced.outs))
	if n == 0 {
		rep.fail("traced phase completed no solve")
		return rep
	}
	L := layerInputs{fold: fold.Totals(), solves: n}
	for _, o := range traced.outs {
		L.coverMS += ms(o.cover)
		L.buildMS += ms(o.build)
		L.steps += float64(o.steps)
		L.proven += float64(o.proven)
		L.obstacles += float64(o.obstacles)
		L.binaries += float64(o.binaries)
		L.nodes += float64(o.nodes)
		L.adjustMS += ms(o.adjustDur)
		L.heightGainPct += o.heightGainPct
		L.routeMS += ms(o.routeDur)
		L.wirelength += o.wirelength
		L.overflow += o.overflow
	}
	L.tracedP50, L.plainP50 = median(solveTimes(traced.outs)), median(times)
	if w.name == "table1" {
		L.fitMSPerModule, L.fitR2 = table1Fit(plain.outs)
	}
	rep.perLayer(L)
	return rep
}

func solveTimes(outs []solved) []float64 {
	ts := make([]float64, len(outs))
	for i, o := range outs {
		ts[i] = ms(o.dur)
	}
	return ts
}

// table1Fit fits time = a + b*modules over each design's median solve
// time (bench.FitLinear, the paper's Table 1 shape) and returns b in ms
// per module and R².
func table1Fit(outs []solved) (msPerModule, r2 float64) {
	byDesign := map[string][]float64{}
	var order []*netlist.Design
	for _, o := range outs {
		if _, ok := byDesign[o.design.Name]; !ok {
			order = append(order, o.design)
		}
		byDesign[o.design.Name] = append(byDesign[o.design.Name], ms(o.dur))
	}
	var rows []bench.Table1Row
	for _, d := range order {
		med := median(byDesign[d.Name])
		rows = append(rows, bench.Table1Row{
			Design: d.Name, Modules: len(d.Modules),
			Time: time.Duration(med * float64(time.Millisecond)),
		})
	}
	_, b, r2 := bench.FitLinear(rows)
	return 1000 * b, r2
}
