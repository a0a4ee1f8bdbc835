// Command perfbench is the repository benchmark. One run executes one
// workload for a fixed time and prints, as its last line, a JSON object
// with the run's correctness, attempt and failure counts and its metrics:
// the end-to-end metrics of an untraced run (-trace 0), or the per-layer
// metrics of a traced run (-trace 1). BENCHMARK.json at the repository
// root lists the workloads and metrics.
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
//
// Every call goes through the layers' public functions, and a traced run
// folds the solver's own span and counter events (see Fold). Any failed
// output check makes the run exit 1 with "correct": false.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

type args struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

func parseArgs(argv []string) (args, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: table1, areawire, route or service")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured time in seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(argv); err != nil {
		return args{}, err
	}
	a := args{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if _, ok := batchWorkloads[a.workload]; !ok && a.workload != "service" {
		return a, fmt.Errorf("unknown workload %q", a.workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return a, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	return a, nil
}

func main() {
	processStart := time.Now()
	a, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var rep *report
	if w, ok := batchWorkloads[a.workload]; ok {
		rep = runBatch(w, a, processStart)
	} else {
		rep = runService(a, processStart)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}
