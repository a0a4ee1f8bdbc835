package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// metricDef is one metric of BENCHMARK.json. For a per-layer metric,
// moves names the end-to-end metric and workload it should move, so
// later changes can cite the prediction by name.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	moves              string  // per-layer only
}

var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "solve_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "solve_ms_p90", unit: "ms", better: "lower", bound: 0.25},
	{name: "solves_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "util_pct", unit: "%", better: "higher", bound: 0.05},
	{name: "hpwl", unit: "length", better: "lower", bound: 0.05},
	{name: "final_area", unit: "area", better: "lower", bound: 0.05},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.1},
}

var perLayerDefs = []metricDef{
	{name: "geom.cover_ms", unit: "ms", better: "lower", moves: "solve_ms_p50 on table1; barely areawire"},
	{name: "geom.covers_per_step", unit: "count", better: "lower", moves: "solve_ms_p50 on table1; barely areawire"},
	{name: "mipmodel.build_ms", unit: "ms", better: "lower", moves: "solve_ms_p50 on table1"},
	{name: "mipmodel.presolve_ms", unit: "ms", better: "lower", moves: "solve_ms_p50 on table1"},
	{name: "mipmodel.binaries", unit: "count", better: "lower", moves: "solve_ms_p50 on table1"},
	{name: "mipmodel.fixed_binaries", unit: "count", better: "higher", moves: "solve_ms_p50 on table1"},
	{name: "milp.nodes", unit: "count", better: "lower", moves: "solve_ms_p50 and util_pct on table1"},
	{name: "milp.nodes_per_s", unit: "1/s", better: "higher", moves: "solve_ms_p50 and util_pct on table1"},
	{name: "milp.node_overhead_ms", unit: "ms", better: "lower", moves: "solve_ms_p50 and util_pct on table1"},
	{name: "milp.steps_proven_frac", unit: "ratio", better: "higher", moves: "solve_ms_p50 and util_pct on table1"},
	{name: "milp.idle_frac", unit: "ratio", better: "lower", moves: "solve_ms_p90 and solves_per_s on service"},
	{name: "lp.solve_ms", unit: "ms", better: "lower", moves: "solve_ms_p50 on table1"},
	{name: "lp.solves", unit: "count", better: "lower", moves: "solve_ms_p50 on table1"},
	{name: "lp.dual_pivots", unit: "count", better: "lower", moves: "solve_ms_p50 on table1"},
	{name: "lp.refactors", unit: "count", better: "lower", moves: "solve_ms_p50 on table1"},
	{name: "lp.degenerate_frac", unit: "ratio", better: "lower", moves: "solve_ms_p50 on areawire"},
	{name: "lp.max_solve_ms", unit: "ms", better: "lower", moves: "solve_ms_p50 on areawire"},
	{name: "lp.iterlimit", unit: "count", better: "lower", moves: "solve_ms_p50 on areawire"},
	{name: "core.adjust_ms", unit: "ms", better: "lower", moves: "solve_ms_p50 on areawire; none on table1; noise on route"},
	{name: "core.adjust_pivots", unit: "count", better: "lower", moves: "solve_ms_p50 on areawire; none on table1; noise on route"},
	{name: "core.adjust_height_gain_pct", unit: "%", better: "higher", moves: "solve_ms_p50 on areawire; none on table1; noise on route"},
	{name: "core.fit_ms_per_module", unit: "ms", better: "lower", moves: "records the Table 1 shape on table1"},
	{name: "core.fit_r2", unit: "ratio", better: "higher", moves: "records the Table 1 shape on table1"},
	{name: "route.route_ms", unit: "ms", better: "lower", moves: "solve_ms_p50 and final_area on route; nothing elsewhere"},
	{name: "route.wirelength", unit: "length", better: "lower", moves: "solve_ms_p50 and final_area on route; nothing elsewhere"},
	{name: "route.overflow", unit: "count", better: "lower", moves: "solve_ms_p50 and final_area on route; nothing elsewhere"},
	{name: "server.submit_ms_p50", unit: "ms", better: "lower", moves: "solve_ms_p50, solve_ms_p90 and solves_per_s on service"},
	{name: "server.queue_wait_ms_p50", unit: "ms", better: "lower", moves: "solve_ms_p50, solve_ms_p90 and solves_per_s on service"},
	{name: "server.result_ms_p50", unit: "ms", better: "lower", moves: "solve_ms_p50, solve_ms_p90 and solves_per_s on service"},
	{name: "server.cache_hit_ratio", unit: "ratio", better: "higher", moves: "solve_ms_p50, solve_ms_p90 and solves_per_s on service"},
	{name: "server.rejected", unit: "count", better: "lower", moves: "solve_ms_p50, solve_ms_p90 and solves_per_s on service"},
	{name: "obs.trace_overhead_pct", unit: "%", better: "lower", moves: "no end-to-end metric; watched against the 2% budget"},
}

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 5

// report accumulates one run's metrics, checks and stamp.
type report struct {
	workload  string
	args      args
	values    map[string]float64
	attempted int
	failed    int
	failures  []string
	samples   map[string]int
	notes     []string
}

func newReport(workload string, a args) *report {
	return &report{workload: workload, args: a, values: map[string]float64{}, samples: map[string]int{}}
}

// fail records a failed output check outside the solve loop.
func (r *report) fail(msg string) {
	r.failed++
	r.failures = append(r.failures, msg)
}

func (r *report) note(msg string) { r.notes = append(r.notes, msg) }

func (r *report) addPhase(attempts int, failures []string) {
	r.attempted += attempts
	r.failed += len(failures)
	r.failures = append(r.failures, failures...)
}

func (r *report) setup(secs []float64) {
	r.values["setup_s"] = median(secs)
	r.samples["setup_s"] = len(secs)
}

// endToEnd records the untraced phase's metrics. It reads the peak RSS
// before a traced phase could raise it.
func (r *report) endToEnd(times []float64, elapsed time.Duration, util, hpwl, area float64) {
	r.values["solve_ms_p50"] = median(times)
	r.values["solve_ms_p90"] = quantile(times, 0.9)
	r.values["solves_per_s"] = float64(len(times)) / elapsed.Seconds()
	r.values["util_pct"] = util
	r.values["hpwl"] = hpwl
	r.values["final_area"] = area
	if rss, err := peakRSSMiB(); err != nil {
		r.fail(err.Error())
	} else {
		r.values["peak_rss_mb"] = rss
	}
	if len(times) < 100 {
		r.note(fmt.Sprintf("solve_ms_p90 rests on %d solves, fewer than the 100 that put ten samples above it", len(times)))
	}
}

// layerInputs are the raw per-layer sums of a traced phase; perLayer
// turns them into the per-solve metrics of perLayerDefs.
type layerInputs struct {
	fold    FoldTotals
	solves  float64
	service bool

	coverMS, buildMS                          float64
	obstacles, binaries, nodes, steps, proven float64
	adjustMS, heightGainPct                   float64
	fitMSPerModule, fitR2                     float64
	routeMS, wirelength, overflow             float64
	tracedP50, plainP50                       float64

	submitP50, queueWaitP50, resultP50, cacheHitRatio, rejected float64
}

func (r *report) perLayer(L layerInputs) {
	f := L.fold
	per := func(x float64) float64 { return x / L.solves }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	bbUS := float64(f.Self["bb"] + f.Self["bb.worker"])
	v := r.values
	v["geom.cover_ms"] = per(L.coverMS)
	v["geom.covers_per_step"] = ratio(L.obstacles, L.steps)
	v["mipmodel.build_ms"] = per(L.buildMS)
	v["mipmodel.presolve_ms"] = per(float64(f.Self["presolve.model"]) / 1e3)
	v["mipmodel.binaries"] = per(L.binaries)
	v["mipmodel.fixed_binaries"] = per(float64(f.ModelFixed))
	v["milp.nodes"] = per(L.nodes)
	v["milp.nodes_per_s"] = ratio(L.nodes, float64(f.Wall["bb"])/1e6)
	v["milp.node_overhead_ms"] = per((bbUS - float64(f.LPInBBUS)) / 1e3)
	v["milp.steps_proven_frac"] = ratio(L.proven, L.steps)
	if runtime.NumCPU() >= 2 {
		v["milp.idle_frac"] = ratio(float64(f.IdleUS), float64(f.ParallelUS))
	} else {
		r.note("milp.idle_frac left out: fewer than 2 CPUs, so no parallel search ran")
	}
	v["lp.solve_ms"] = per(float64(f.LPUS) / 1e3)
	v["lp.solves"] = per(float64(f.LPSolves))
	v["lp.dual_pivots"] = per(float64(f.LPDualPivots))
	v["lp.refactors"] = per(float64(f.LPRefactors))
	v["lp.degenerate_frac"] = ratio(float64(f.LPDegenerate), float64(f.LPIters))
	v["lp.max_solve_ms"] = float64(f.LPMaxUS) / 1e3
	v["lp.iterlimit"] = per(float64(f.LPIterLimit))
	v["core.adjust_ms"] = per(L.adjustMS)
	v["core.adjust_pivots"] = per(float64(f.AdjustIters))
	v["core.adjust_height_gain_pct"] = per(L.heightGainPct)
	v["core.fit_ms_per_module"] = L.fitMSPerModule
	v["core.fit_r2"] = L.fitR2
	v["route.route_ms"] = per(L.routeMS)
	v["route.wirelength"] = per(L.wirelength)
	v["route.overflow"] = per(L.overflow)
	v["server.submit_ms_p50"] = L.submitP50
	v["server.queue_wait_ms_p50"] = L.queueWaitP50
	v["server.result_ms_p50"] = L.resultP50
	v["server.cache_hit_ratio"] = L.cacheHitRatio
	v["server.rejected"] = L.rejected
	v["obs.trace_overhead_pct"] = 100 * ratio(L.tracedP50-L.plainP50, L.plainP50)
	r.samples["traced_solves"] = int(L.solves)

	if f.Orphans > 0 || f.Open > 0 {
		r.note(fmt.Sprintf("trace fold: %d orphaned events, %d spans never ended", f.Orphans, f.Open))
	}
	if L.service {
		if want := 1.0 / repeatEvery; L.cacheHitRatio != want {
			r.fail(fmt.Sprintf("server.cache_hit_ratio %v, want the mix's repeat share %v", L.cacheHitRatio, want))
		}
		return
	}
	// Where the traced solve time went, as shares of the traced mean.
	total := L.tracedMean()
	share := func(x float64) float64 { return 100 * ratio(x, total) }
	r.note(fmt.Sprintf("attribution of the traced mean solve (%.1fms): lp in bb %.0f%%, node overhead %.0f%%, adjust %.0f%% (its LP %.0f%%), route %.0f%%",
		total, share(per(float64(f.LPInBBUS)/1e3)), share(v["milp.node_overhead_ms"]),
		share(v["core.adjust_ms"]), share(per(float64(f.LPInAdjustUS)/1e3)), share(v["route.route_ms"])))
}

// tracedMean is the mean traced solve time in ms: the solve spans plus
// the adjust and route calls that run outside them.
func (L layerInputs) tracedMean() float64 {
	return (float64(L.fold.Wall["solve"])/1e3 + L.adjustMS + L.routeMS) / L.solves
}

// write prints the stamp line and, last, the result line.
func (r *report) write(w io.Writer) error {
	defs := endToEndDefs
	if r.args.trace {
		defs = perLayerDefs
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		if v, ok := r.values[d.name]; ok && r.failed == 0 {
			metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		}
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	sort.Strings(r.failures)
	stamp := map[string]any{
		"workload": r.workload, "seed": r.args.seed, "trace": r.args.trace,
		"seconds": r.args.seconds.Seconds(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu": runtime.NumCPU(), "go": runtime.Version(), "samples": r.samples,
		"failed_frac": failedFrac, "failures": r.failures, "notes": r.notes,
	}
	sb, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	attempted := max(r.attempted, 1)
	rb, err := json.Marshal(map[string]any{
		"correct": r.failed == 0, "attempted": attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "stamp %s\n%s\n", sb, rb)
	return err
}
