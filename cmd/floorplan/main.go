// Command floorplan runs the analytical floorplanner on a design and
// reports the resulting chip, optionally routing it and rendering SVG or
// ASCII output.
//
// Usage:
//
//	floorplan [flags]
//
// The design comes from -input (netlist text format, see
// internal/netlist), or from the built-in generators via -design ami33,
// -design ami49 or -design randN (e.g. rand20; N up to 1000).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"afp/internal/core"
	"afp/internal/milp"
	"afp/internal/mipmodel"
	"afp/internal/netlist"
	"afp/internal/obs"
	"afp/internal/order"
	"afp/internal/portfolio"
	"afp/internal/render"
	"afp/internal/route"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "floorplan:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		input     = flag.String("input", "", "netlist file (see internal/netlist format); empty uses -design")
		blocks    = flag.String("blocks", "", "bookshelf .blocks file (use with -nets)")
		netsFile  = flag.String("nets", "", "bookshelf .nets file (use with -blocks)")
		design    = flag.String("design", "ami33", "built-in design: ami33, ami49 or rand<N> with 0 < N <= 1000 (e.g. rand20)")
		seed      = flag.Int64("seed", 1, "seed for rand<N> designs and random ordering")
		width     = flag.Float64("width", 0, "chip width W (0 = automatic)")
		group     = flag.Int("group", 3, "successive-augmentation group size")
		objective = flag.String("objective", "area", "objective: area or area+wire")
		ordering  = flag.String("order", "linear", "module selection order: linear or random")
		envelopes = flag.Bool("envelopes", false, "reserve routing envelopes around modules")
		post      = flag.Bool("post", true, "run the fixed-topology LP adjustment after placement")
		doRoute   = flag.Bool("route", false, "globally route the result")
		weighted  = flag.Bool("weighted", true, "use weighted shortest path when routing")
		nodes     = flag.Int("nodes", 8000, "branch-and-bound node limit per step")
		stepTime  = flag.Duration("steptime", 10*time.Second, "time limit per augmentation step")
		svgOut    = flag.String("svg", "", "write the floorplan as SVG to this file")
		placeOut  = flag.String("placement", "", "write the floorplan as JSON to this file")
		ascii     = flag.Bool("ascii", false, "print an ASCII rendering")
		traceOut  = flag.String("trace", "", "write a JSONL event trace (lp.solve, node.*, step.*) to this file")
		verbose   = flag.Bool("verbose", false, "log solver progress to stderr and print per-step traces")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		sweep     = flag.Bool("sweep", false, "try several chip widths and keep the best floorplan")
		workers   = flag.Int("workers", 0, "branch-and-bound workers per MILP step (0 = one per CPU, 1 = deterministic)")
		sweepWork = flag.Int("sweepworkers", 0, "concurrent width trials with -sweep (0 = all at once)")
		timeout   = flag.Duration("timeout", 0, "overall solve deadline (0 = none); the partial floorplan is still reported")
		presolve  = flag.Bool("presolve", true, "tighten big-M coefficients and fix forced binaries before branch-and-bound")
		verify    = flag.Bool("verify", false, "check the final floorplan for legality and exit non-zero on violations")
		audit     = flag.Bool("audit", false, "statically audit every step's MILP before solving (defaults to the -verify setting)")
		backend   = flag.String("backend", "", "solution paradigm: milp (the paper, default), portfolio (race all paradigms), or one contestant raced alone: anneal (Wong-Liu slicing), seqpair or project")
		race      = flag.String("portfolio", "", "comma-separated portfolio contestants to race (implies -backend=portfolio), e.g. milp,anneal,project")
	)
	flag.Parse()
	// -audit follows -verify unless set explicitly: verified runs get the
	// model-level checks for free, and either can still be toggled alone.
	auditSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "audit" {
			auditSet = true
		}
	})
	if !auditSet {
		*audit = *verify
	}

	// -timeout and Ctrl-C both cancel through the context, down to the
	// simplex pivot loop; the floorplan built so far is still printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, *timeout)
		defer cancelT()
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "floorplan: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}
	observer, closeTrace, err := setupObserver(*traceOut, *verbose)
	if err != nil {
		return err
	}
	defer func() {
		if err := closeTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "floorplan: trace:", err)
		}
	}()

	d, err := loadDesign(*input, *blocks, *netsFile, *design, *seed)
	if err != nil {
		return err
	}

	cfg := core.Config{
		ChipWidth:    *width,
		GroupSize:    *group,
		Envelopes:    *envelopes,
		PostOptimize: *post,
		NoPresolve:   !*presolve,
		Audit:        *audit,
		MILP:         milp.Options{MaxNodes: *nodes, TimeLimit: *stepTime},
		Workers:      *workers,
		SweepWorkers: *sweepWork,
		Obs:          observer,
	}
	switch *objective {
	case "area":
		cfg.Objective = mipmodel.AreaOnly
	case "area+wire", "wire":
		cfg.Objective = mipmodel.AreaWire
		cfg.WireWeight = 0.02
	default:
		return fmt.Errorf("unknown objective %q", *objective)
	}
	switch *ordering {
	case "linear":
		cfg.Ordering = order.Linear(d)
	case "random":
		cfg.Ordering = order.Random(d, *seed)
	default:
		return fmt.Errorf("unknown ordering %q", *ordering)
	}

	if *race != "" {
		if *backend != "" && *backend != "portfolio" {
			return fmt.Errorf("-portfolio races contestants; it cannot run with -backend=%s", *backend)
		}
		*backend = "portfolio"
	}

	start := time.Now()
	var r *core.Result
	switch {
	case *backend != "" && *backend != "milp":
		// Every other paradigm runs as a portfolio race, a single
		// contestant as a race of one, so the per-backend outcome table
		// is reported alongside the winning floorplan.
		if *sweep {
			return fmt.Errorf("-sweep is incompatible with -backend=%s", *backend)
		}
		popts := portfolio.Options{Seed: *seed, Obs: observer}
		switch {
		case *backend != "portfolio":
			popts.Backends = []string{*backend}
		case *race != "":
			popts.Backends = strings.Split(*race, ",")
		}
		var pres *portfolio.Result
		pres, err = portfolio.Solve(ctx, d, cfg, popts)
		if err != nil {
			if pres == nil || !isCtxErr(err) {
				return err
			}
			fmt.Fprintf(os.Stderr, "floorplan: race stopped early (%v); best incumbent follows\n", err)
		}
		r = pres.Result
		fmt.Printf("portfolio: winner %s, TTFF %v, proven bound %.2f (%s), %d incumbents, %d rejected\n",
			pres.Winner, pres.TTFF.Round(time.Microsecond), pres.Bound, pres.BoundSource,
			len(pres.Incumbents), pres.Rejected)
		for _, b := range pres.Backends {
			h := "-"
			if b.Published > 0 {
				h = fmt.Sprintf("%.2f", b.Height)
			}
			fmt.Printf("  %-8s %-9s height %-8s published %-3d nodes %-6d wall %v\n",
				b.Name, b.Outcome, h, b.Published, b.Nodes, b.Wall.Round(time.Millisecond))
		}
	case *sweep:
		var trials []core.SweepResult
		r, trials, err = core.FloorplanBestWidthCtx(ctx, d, cfg, []float64{0.85, 0.95, 1.05, 1.15})
		if err != nil {
			return err
		}
		for _, tr := range trials {
			if tr.Err != nil {
				fmt.Printf("  width %.1f: %v\n", tr.Width, tr.Err)
				continue
			}
			fmt.Printf("  width %.1f: area %.0f (util %.1f%%)\n",
				tr.Width, tr.Result.ChipArea(), 100*tr.Result.Utilization())
		}
	default:
		r, err = core.FloorplanCtx(ctx, d, cfg)
		if err != nil {
			if r == nil || !isCtxErr(err) {
				return err
			}
			// Deadline or Ctrl-C mid-solve: report the floorplan of the
			// completed augmentation steps (complete when the adjust was cut).
			fmt.Fprintf(os.Stderr, "floorplan: stopped early (%v); %d of %d modules placed\n",
				err, len(r.Placements), len(d.Modules))
		}
	}
	// A floorplan is partial when a module is missing. A deadline that
	// cuts a race or the adjust short still leaves a complete floorplan;
	// the stopped-early note on stderr says so.
	partial := len(r.Placements) < len(d.Modules)
	fmt.Printf("design %s: %d modules, total area %.0f\n", d.Name, len(d.Modules), d.TotalArea())
	if partial {
		fmt.Printf("PARTIAL floorplan (%d/%d modules placed):\n", len(r.Placements), len(d.Modules))
	}
	fmt.Printf("chip %.1f x %.1f, area %.0f, utilization %.1f%%, HPWL %.0f, %v\n",
		r.ChipWidth, r.Height, r.ChipArea(), 100*r.Utilization(), r.HPWL(),
		time.Since(start).Round(time.Millisecond))

	if *verbose {
		for _, s := range r.Steps {
			fmt.Printf("  step %d: +%d modules, %d obstacles, %d binaries, %d nodes, %v, height %.1f (%v)\n",
				s.Step, len(s.Added), s.Obstacles, s.Binaries, s.Nodes, s.Status, s.Height, s.Elapsed.Round(time.Millisecond))
		}
	}
	// Step statuses are printed only under -verbose, so say it when a
	// node or time limit cut a step short (the steps_limit rule).
	unproven := 0
	for _, s := range r.Steps {
		if s.Status == milp.StatusFeasible || s.Status == milp.StatusLimit {
			unproven++
		}
	}
	if unproven > 0 {
		fmt.Fprintf(os.Stderr, "floorplan: warning: %d of %d augmentation steps stopped at a limit; the floorplan is not proven step-optimal\n",
			unproven, len(r.Steps))
	}

	var verifyErr error
	if *verify {
		violations := r.Verify()
		if partial {
			// A partial floorplan legitimately misses the unplaced modules;
			// only geometric defects of what WAS placed count against it.
			kept := violations[:0]
			for _, v := range violations {
				if v.Kind != "missing" {
					kept = append(kept, v)
				}
			}
			violations = kept
		}
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "floorplan: violation:", v)
			}
			verifyErr = fmt.Errorf("verification failed: %d violation(s)", len(violations))
		} else if r.Source != "" {
			fmt.Printf("verified: floorplan is legal (source %s)\n", r.Source)
		} else {
			fmt.Println("verified: floorplan is legal")
		}
	}

	var rt *route.Result
	if *doRoute && partial {
		fmt.Fprintln(os.Stderr, "floorplan: skipping routing of a partial floorplan")
	}
	if *doRoute && !partial {
		alg := route.ShortestPath
		if *weighted {
			alg = route.WeightedShortestPath
		}
		rt, err = route.Route(r, route.Config{Algorithm: alg})
		if err != nil {
			return err
		}
		fmt.Printf("routed: wirelength %.0f, overflow %d, final chip %.1f x %.1f (area %.0f)\n",
			rt.Wirelength, rt.Overflow, rt.FinalW, rt.FinalH, rt.FinalArea())
	}

	if *ascii {
		fmt.Print(render.ASCII(r, 78))
	}
	if *placeOut != "" {
		f, err := os.Create(*placeOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := r.SaveJSON(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *placeOut)
	}
	if *svgOut != "" {
		if err := writeSVG(*svgOut, r, rt); err != nil {
			return err
		}
	}
	return verifyErr
}

// isCtxErr reports whether err stems from cancellation or a deadline —
// the cases where a partial result is expected and worth printing.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// setupObserver builds the shared observer from the -trace and -verbose
// flags: a JSONL writer on the trace file, a human-readable log on stderr,
// or both. The returned close function flushes and closes the trace file
// and reports any write error retained by the JSONL encoder.
func setupObserver(tracePath string, verbose bool) (*obs.Observer, func() error, error) {
	var sinks []obs.Sink
	closeFn := func() error { return nil }
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, closeFn, err
		}
		w := obs.NewJSONLWriter(f)
		sinks = append(sinks, w)
		closeFn = func() error {
			if err := w.Err(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	}
	if verbose {
		sinks = append(sinks, obs.NewLogSink(os.Stderr))
	}
	return obs.New(obs.Multi(sinks...)), closeFn, nil
}

func writeSVG(path string, r *core.Result, rt *route.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := render.SVGWithRoutes(f, r, rt); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func loadDesign(input, blocks, nets, name string, seed int64) (*netlist.Design, error) {
	if blocks != "" {
		bf, err := os.Open(blocks)
		if err != nil {
			return nil, err
		}
		defer bf.Close()
		var nr *os.File
		if nets != "" {
			nr, err = os.Open(nets)
			if err != nil {
				return nil, err
			}
			defer nr.Close()
		}
		base := strings.TrimSuffix(filepath.Base(blocks), filepath.Ext(blocks))
		if nr != nil {
			return netlist.ParseBookshelf(base, bf, nr)
		}
		return netlist.ParseBookshelf(base, bf, nil)
	}
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return netlist.Parse(f)
	}
	gen, n := name, 0
	if digits, ok := strings.CutPrefix(name, "rand"); ok {
		var err error
		if n, err = strconv.Atoi(digits); err != nil {
			return nil, fmt.Errorf("bad design name %q", name)
		}
		gen = "rand"
	}
	d, err := netlist.Builtin(gen, n, seed)
	if err != nil {
		return nil, fmt.Errorf("-design %s: %w", name, err)
	}
	return d, nil
}
