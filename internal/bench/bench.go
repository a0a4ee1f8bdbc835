// Package bench contains the experiment harness that regenerates every
// table and figure of the paper's evaluation (Section 4). It is shared by
// cmd/experiments and the repository's testing.B benchmarks; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// results.
package bench

import (
	"fmt"
	"io"
	"time"

	"afp/internal/anneal"
	"afp/internal/core"
	"afp/internal/milp"
	"afp/internal/mipmodel"
	"afp/internal/netlist"
	"afp/internal/obs"
	"afp/internal/order"
	"afp/internal/route"
)

// metrics receives per-row timing and counter breakdowns from the table
// runs; nil (the default) disables collection. See SetMetrics.
var metrics *obs.Metrics

// SetMetrics installs a collector for per-row timings ("<table>.<row>_ms"
// keys) and counters. cmd/experiments wires this to its -metrics sidecar;
// pass nil to disable again. Not safe to call while tables are running.
func SetMetrics(m *obs.Metrics) { metrics = m }

// Mode selects the effort level of a run.
type Mode int

// Modes.
const (
	// Full uses the settings that produce the recorded EXPERIMENTS.md
	// numbers (larger node budgets).
	Full Mode = iota
	// Quick cuts node budgets for fast smoke runs and unit benchmarks.
	Quick
)

func (m Mode) milpOptions() milp.Options {
	if m == Quick {
		return milp.Options{MaxNodes: 600, TimeLimit: 2 * time.Second}
	}
	return milp.Options{MaxNodes: 15000, TimeLimit: 15 * time.Second}
}

func (m Mode) baseConfig() core.Config {
	return core.Config{
		GroupSize:        3,
		PostOptimize:     true,
		AdjustIterations: 3,
		MILP:             m.milpOptions(),
	}
}

// Table1Row is one row of Table 1: problem size versus chip area, area
// utilization and execution time.
type Table1Row struct {
	Design   string
	Modules  int
	ChipArea float64
	Util     float64 // 0..1
	Time     time.Duration
}

// Table1 reproduces Series 1: randomly generated problems with 15, 20 and
// 25 modules plus the ami33 benchmark, chip area objective; the paper's
// claim is near-linear growth of execution time with problem size.
func Table1(mode Mode) ([]Table1Row, error) {
	designs := []*netlist.Design{
		netlist.Random(15, 1501),
		netlist.Random(20, 2001),
		netlist.Random(25, 2501),
		netlist.AMI33(),
	}
	var rows []Table1Row
	for _, d := range designs {
		cfg := mode.baseConfig()
		start := time.Now()
		r, err := core.Floorplan(d, cfg)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", d.Name, err)
		}
		metrics.Time("table1."+d.Name, time.Since(start))
		rows = append(rows, Table1Row{
			Design:   d.Name,
			Modules:  len(d.Modules),
			ChipArea: r.ChipArea(),
			Util:     r.Utilization(),
			Time:     time.Since(start),
		})
	}
	return rows, nil
}

// FitLinear least-squares-fits time = a + b*modules over Table 1 rows and
// returns the coefficient of determination R^2 — the quantitative form of
// the paper's "execution time grows almost linearly with the problem
// size" claim.
func FitLinear(rows []Table1Row) (a, b, r2 float64) {
	n := float64(len(rows))
	if n < 2 {
		return 0, 0, 0
	}
	var sx, sy, sxx, sxy, syy float64
	for _, r := range rows {
		x := float64(r.Modules)
		y := r.Time.Seconds()
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		syy += y * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, 0
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	ssTot := syy - sy*sy/n
	var ssRes float64
	for _, r := range rows {
		pred := a + b*float64(r.Modules)
		d := r.Time.Seconds() - pred
		ssRes += d * d
	}
	if ssTot <= 0 {
		return a, b, 1
	}
	return a, b, 1 - ssRes/ssTot
}

// Table2Row is one row of Table 2: objective function and module
// selection order versus chip area, utilization and wirelength on ami33
// with over-the-cell routing (no envelopes).
type Table2Row struct {
	Objective string
	Ordering  string
	ChipArea  float64
	Util      float64
	HPWL      float64
	Time      time.Duration
}

// Table2 reproduces Series 2: the ami33 benchmark under the two objective
// functions (chip area; chip area + wirelength) and the two selection
// orders (random; connectivity-based linear ordering).
func Table2(mode Mode) ([]Table2Row, error) {
	d := netlist.AMI33()
	objectives := []struct {
		name string
		obj  mipmodel.Objective
	}{
		{"area", mipmodel.AreaOnly},
		{"area+wire", mipmodel.AreaWire},
	}
	orderings := []struct {
		name string
		ord  []int
	}{
		{"random", order.Random(d, 42)},
		{"linear", order.Linear(d)},
	}
	var rows []Table2Row
	for _, ob := range objectives {
		for _, or := range orderings {
			cfg := mode.baseConfig()
			cfg.Objective = ob.obj
			cfg.WireWeight = 0.02
			cfg.Ordering = or.ord
			start := time.Now()
			r, err := core.Floorplan(d, cfg)
			if err != nil {
				return nil, fmt.Errorf("table2 %s/%s: %w", ob.name, or.name, err)
			}
			metrics.Time("table2."+ob.name+"."+or.name, time.Since(start))
			rows = append(rows, Table2Row{
				Objective: ob.name,
				Ordering:  or.name,
				ChipArea:  r.ChipArea(),
				Util:      r.Utilization(),
				HPWL:      r.HPWL(),
				Time:      time.Since(start),
			})
		}
	}
	return rows, nil
}

// Table3Row is one row of Table 3: around-the-cell routing on ami33,
// with or without envelopes, under the two routing algorithms.
type Table3Row struct {
	Envelopes  bool
	Algorithm  string
	PlacedArea float64
	FinalArea  float64 // after channel-width adjustment
	Wirelength float64 // routed wirelength
	Overflow   int
}

// Table3 reproduces Series 3: floorplan adjustment with and without
// envelopes crossed with shortest-path and weighted-shortest-path global
// routing. The paper's claim: envelopes decrease the final chip size.
func Table3(mode Mode) ([]Table3Row, error) {
	d := netlist.AMI33()
	var rows []Table3Row
	for _, env := range []bool{false, true} {
		cfg := mode.baseConfig()
		cfg.Envelopes = env
		cfg.PitchH, cfg.PitchV = 0.2, 0.2
		start := time.Now()
		fp, err := core.Floorplan(d, cfg)
		if err != nil {
			return nil, fmt.Errorf("table3 env=%v: %w", env, err)
		}
		metrics.Time(fmt.Sprintf("table3.place.env=%v", env), time.Since(start))
		for _, alg := range []route.Algorithm{route.ShortestPath, route.WeightedShortestPath} {
			start := time.Now()
			rr, err := route.Route(fp, route.Config{Algorithm: alg, PitchH: 0.2, PitchV: 0.2})
			if err != nil {
				return nil, fmt.Errorf("table3 env=%v alg=%v: %w", env, alg, err)
			}
			metrics.Time(fmt.Sprintf("table3.route.env=%v.%s", env, alg), time.Since(start))
			metrics.Count(fmt.Sprintf("table3.overflow.env=%v.%s", env, alg), int64(rr.Overflow))
			rows = append(rows, Table3Row{
				Envelopes:  env,
				Algorithm:  alg.String(),
				PlacedArea: fp.ChipArea(),
				FinalArea:  rr.FinalArea(),
				Wirelength: rr.Wirelength,
				Overflow:   rr.Overflow,
			})
		}
	}
	return rows, nil
}

// BaselineRow compares the analytical floorplanner against the Wong-Liu
// simulated-annealing slicing baseline.
type BaselineRow struct {
	Method   string
	ChipArea float64
	Util     float64
	HPWL     float64
	Time     time.Duration
}

// Baseline runs both floorplanners on ami33.
func Baseline(mode Mode) ([]BaselineRow, error) {
	d := netlist.AMI33()
	var rows []BaselineRow

	start := time.Now()
	milpRes, err := core.Floorplan(d, mode.baseConfig())
	if err != nil {
		return nil, err
	}
	metrics.Time("baseline.milp", time.Since(start))
	rows = append(rows, BaselineRow{
		Method: "milp-successive-augmentation", ChipArea: milpRes.ChipArea(),
		Util: milpRes.Utilization(), HPWL: milpRes.HPWL(), Time: time.Since(start),
	})

	if mode == Full {
		// Equal-outline-freedom comparison: let the analytical method pick
		// its best fixed width from a small sweep, as the SA baseline is
		// free to choose any outline.
		start = time.Now()
		swept, _, err := core.FloorplanBestWidth(d, mode.baseConfig(), []float64{0.85, 0.95, 1.05})
		if err != nil {
			return nil, err
		}
		rows = append(rows, BaselineRow{
			Method: "milp-width-sweep", ChipArea: swept.ChipArea(),
			Util: swept.Utilization(), HPWL: swept.HPWL(), Time: time.Since(start),
		})
	}

	moves := 500
	if mode == Quick {
		moves = 120
	}
	start = time.Now()
	saRes, err := anneal.Floorplan(d, anneal.Config{Seed: 1, MovesPerTemp: moves})
	if err != nil {
		return nil, err
	}
	metrics.Time("baseline.sa", time.Since(start))
	rows = append(rows, BaselineRow{
		Method: "wong-liu-slicing-sa", ChipArea: saRes.ChipArea(),
		Util: d.TotalArea() / saRes.ChipArea(), HPWL: saRes.HPWL(), Time: time.Since(start),
	})

	start = time.Now()
	spRes, err := anneal.SeqPair(d, anneal.Config{Seed: 1, MovesPerTemp: moves})
	if err != nil {
		return nil, err
	}
	metrics.Time("baseline.seqpair", time.Since(start))
	rows = append(rows, BaselineRow{
		Method: "sequence-pair-sa", ChipArea: spRes.ChipArea(),
		Util: d.TotalArea() / spRes.ChipArea(), HPWL: spRes.HPWL(), Time: time.Since(start),
	})
	return rows, nil
}

// WriteTable1 formats Table 1 like the paper's layout.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1 — problem size vs execution time (objective: chip area)\n")
	fmt.Fprintf(w, "%-8s %8s %12s %12s %12s\n", "design", "modules", "chip area", "util %", "time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %8d %12.0f %11.1f%% %12v\n",
			r.Design, r.Modules, r.ChipArea, 100*r.Util, r.Time.Round(time.Millisecond))
	}
	if len(rows) >= 2 {
		a, b, r2 := FitLinear(rows)
		fmt.Fprintf(w, "linear fit: time ≈ %.2fs + %.3fs/module (R² = %.3f)\n", a, b, r2)
	}
}

// WriteTable2 formats Table 2.
func WriteTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "Table 2 — ami33, over-the-cell routing\n")
	fmt.Fprintf(w, "%-10s %-8s %12s %8s %12s %12s\n", "objective", "order", "chip area", "util %", "wirelength", "time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-8s %12.0f %7.1f%% %12.0f %12v\n",
			r.Objective, r.Ordering, r.ChipArea, 100*r.Util, r.HPWL, r.Time.Round(time.Millisecond))
	}
}

// WriteTable3 formats Table 3.
func WriteTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "Table 3 — ami33, around-the-cell routing\n")
	fmt.Fprintf(w, "%-10s %-24s %12s %12s %12s %9s\n", "envelopes", "router", "placed area", "final area", "wirelength", "overflow")
	for _, r := range rows {
		env := "no"
		if r.Envelopes {
			env = "yes"
		}
		fmt.Fprintf(w, "%-10s %-24s %12.0f %12.0f %12.0f %9d\n",
			env, r.Algorithm, r.PlacedArea, r.FinalArea, r.Wirelength, r.Overflow)
	}
}

// WriteBaseline formats the baseline comparison.
func WriteBaseline(w io.Writer, rows []BaselineRow) {
	fmt.Fprintf(w, "Baseline — analytical MILP vs Wong-Liu slicing SA (ami33)\n")
	fmt.Fprintf(w, "%-30s %12s %8s %12s %12s\n", "method", "chip area", "util %", "HPWL", "time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %12.0f %7.1f%% %12.0f %12v\n",
			r.Method, r.ChipArea, 100*r.Util, r.HPWL, r.Time.Round(time.Millisecond))
	}
}
