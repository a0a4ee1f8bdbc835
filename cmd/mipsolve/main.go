// Command mipsolve is a standalone mixed integer linear program solver
// built on the lp/milp packages — the LINDO stand-in, exposed directly.
//
// Input format (stdin or -input FILE), one directive per line:
//
//	# comment
//	maximize                     (default is minimize)
//	var  NAME LO HI COST         continuous variable, HI may be "inf"
//	int  NAME LO HI COST         integer variable
//	bin  NAME COST               binary variable
//	con  NAME OP RHS COEF VAR [COEF VAR ...]   with OP one of <= >= ==
//
// Example (a knapsack):
//
//	maximize
//	bin a 10
//	bin b 13
//	con cap <= 6  3 a  4 b
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"afp/internal/lp"
	"afp/internal/milp"
	"afp/internal/mipmodel/modelcheck"
	"afp/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mipsolve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		input     = flag.String("input", "", "model file; empty reads stdin")
		maxNodes  = flag.Int("nodes", 200000, "branch-and-bound node limit")
		workers   = flag.Int("workers", 0, "branch-and-bound workers (0 = one per CPU, 1 = deterministic)")
		timeout   = flag.Duration("timeout", time.Minute, "solve time limit")
		presolve  = flag.Bool("presolve", true, "propagate variable bounds through the rows before branch-and-bound")
		traceOut  = flag.String("trace", "", "write a JSONL event trace (lp.solve, node.*) to this file")
		verbose   = flag.Bool("verbose", false, "log branch-and-bound progress to stderr")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		audit     = flag.Bool("audit", false, "statically audit the model (dangling variables, non-finite data) before solving; findings abort the solve")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "mipsolve: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}

	var sinks []obs.Sink
	closeTrace := func() error { return nil }
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		w := obs.NewJSONLWriter(f)
		sinks = append(sinks, w)
		closeTrace = func() error {
			if err := w.Err(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	}
	if *verbose {
		sinks = append(sinks, obs.NewLogSink(os.Stderr))
	}
	observer := obs.New(obs.Multi(sinks...))

	var r io.Reader = os.Stdin
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	m, names, err := parseModel(r)
	if err != nil {
		return err
	}
	if *audit {
		findings := modelcheck.AuditModel(m)
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, "mipsolve: audit:", f)
		}
		if len(findings) > 0 {
			return fmt.Errorf("audit: %d finding(s)", len(findings))
		}
		fmt.Fprintln(os.Stderr, "mipsolve: audit: model is clean")
	}

	// The deadline and Ctrl-C both flow through the context, enforced
	// down in the simplex pivot loop; an interrupted search still reports
	// its best incumbent and proven bound below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := milp.Options{MaxNodes: *maxNodes, Workers: *workers, Presolve: *presolve, Obs: observer}
	opts.LP.Obs = observer
	res := milp.SolveCtx(ctx, m, opts)
	if err := ctx.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "mipsolve: search stopped early:", err)
	}
	fmt.Println(res.String())
	if err := closeTrace(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if res.X == nil {
		return nil
	}
	for i, name := range names {
		fmt.Printf("  %s = %g\n", name, res.X[i])
	}
	return nil
}

func parseModel(r io.Reader) (*milp.Model, []string, error) {
	p := lp.NewProblem()
	m := milp.NewModel(p)
	vars := map[string]lp.VarID{}
	var names []string

	addVar := func(name string, lo, hi, cost float64, integer bool) error {
		if _, dup := vars[name]; dup {
			return fmt.Errorf("duplicate variable %q", name)
		}
		v := p.AddVariable(name, lo, hi, cost)
		if integer {
			m.MarkInteger(v)
		}
		vars[name] = v
		names = append(names, name)
		return nil
	}

	parseF := func(s string) (float64, error) {
		if s == "inf" || s == "+inf" {
			return math.Inf(1), nil
		}
		return strconv.ParseFloat(s, 64)
	}

	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		fail := func(msg string) error { return fmt.Errorf("line %d: %s", lineNo, msg) }
		switch f[0] {
		case "maximize":
			p.SetMaximize(true)
		case "minimize":
			p.SetMaximize(false)
		case "var", "int":
			if len(f) != 5 {
				return nil, nil, fail(f[0] + " needs NAME LO HI COST")
			}
			lo, err1 := parseF(f[2])
			hi, err2 := parseF(f[3])
			cost, err3 := parseF(f[4])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, nil, fail("bad number")
			}
			if err := addVar(f[1], lo, hi, cost, f[0] == "int"); err != nil {
				return nil, nil, fail(err.Error())
			}
		case "bin":
			if len(f) != 3 {
				return nil, nil, fail("bin needs NAME COST")
			}
			cost, err := parseF(f[2])
			if err != nil {
				return nil, nil, fail("bad cost")
			}
			if err := addVar(f[1], 0, 1, cost, true); err != nil {
				return nil, nil, fail(err.Error())
			}
		case "con":
			if len(f) < 6 || (len(f)-4)%2 != 0 {
				return nil, nil, fail("con needs NAME OP RHS then COEF VAR pairs")
			}
			var op lp.Op
			switch f[2] {
			case "<=":
				op = lp.LE
			case ">=":
				op = lp.GE
			case "==", "=":
				op = lp.EQ
			default:
				return nil, nil, fail("bad operator " + f[2])
			}
			rhs, err := parseF(f[3])
			if err != nil {
				return nil, nil, fail("bad rhs")
			}
			var terms []lp.Term
			for i := 4; i < len(f); i += 2 {
				coef, err := parseF(f[i])
				if err != nil {
					return nil, nil, fail("bad coefficient " + f[i])
				}
				v, ok := vars[f[i+1]]
				if !ok {
					return nil, nil, fail("unknown variable " + f[i+1])
				}
				terms = append(terms, lp.Term{Var: v, Coef: coef})
			}
			p.AddConstraint(f[1], terms, op, rhs)
		default:
			return nil, nil, fail("unknown directive " + f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("model has no variables")
	}
	return m, names, nil
}
