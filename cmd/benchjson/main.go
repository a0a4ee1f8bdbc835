// Command benchjson keeps the repository's benchmark record. Fed the
// output of perfbench runs (`make bench`), it writes a snapshot with n,
// min, quartiles, median and max of each workload's metrics, stamped with
// the host, the Go version and the commit; it refuses any run that
// reports "correct": false. -diff OLD.json NEW.json (`make benchcmp`)
// fails when a deterministic counter (a metric whose old runs agree
// within 1e-9 relative) moves, or when an end-to-end metric of
// BENCHMARK.json (read from the working directory) moves its median the
// wrong way by more than both its bound and the old interquartile range.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"
	"time"
)

// Snapshot is one BENCH_<date>.json file. Metrics are keyed by workload
// and metric, as "table1 lp.dual_pivots".
type Snapshot struct {
	Date   string `json:"date"`
	Commit string `json:"commit"`
	Host
	Seeds   []int64            `json:"seeds"`
	Metrics map[string]Summary `json:"metrics"`
}

// Host is the stamp all runs of a snapshot share; Seconds is the length
// of each measured phase.
type Host struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"`
	Seconds    float64 `json:"seconds"`
}

// Summary is one metric over the runs that reported it.
type Summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// stamp is what benchjson reads of a perfbench stamp line.
type stamp struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Trace    bool     `json:"trace"`
	Failures []string `json:"failures"`
	Host
}

func main() {
	date := time.Now().UTC().Format("2006-01-02")
	out := flag.String("out", "BENCH_"+date+".json", "snapshot file to write")
	diff := flag.Bool("diff", false, "compare two snapshot files: benchjson -diff OLD.json NEW.json")
	flag.Parse()
	var err error
	switch {
	case *diff && flag.NArg() != 2:
		err = errors.New("-diff needs exactly two snapshot files")
	case *diff:
		var bench benchmarkJSON
		if err = readJSON("BENCHMARK.json", &bench); err == nil {
			err = runDiff(os.Stdout, flag.Arg(0), flag.Arg(1), bench.EndToEnd)
		}
	default:
		err = record(os.Stdin, *out, date)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// record aggregates the runs on r and writes the snapshot to out.
func record(r io.Reader, out, date string) error {
	snap, err := aggregate(r)
	if err != nil {
		return err
	}
	snap.Date, snap.Commit = date, "unknown"
	// The commit checked out, suffixed -dirty when tracked files differ.
	if b, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output(); err == nil {
		snap.Commit = strings.TrimSpace(string(b))
	}
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(blob, '\n'), 0o644)
}

// aggregate folds perfbench output into a snapshot. It fails on a run
// that is not correct, on a stamp without its result line, and on runs
// whose host stamps differ.
func aggregate(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Metrics: map[string]Summary{}}
	values := map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		text, isStamp := strings.CutPrefix(sc.Text(), "stamp ")
		var st stamp
		if err := json.Unmarshal([]byte(text), &st); !isStamp || err != nil || st.Workload == "" {
			return nil, fmt.Errorf("want a perfbench stamp line, got %q (%v)", text, err)
		}
		run := fmt.Sprintf("%s seed %d trace %v", st.Workload, st.Seed, st.Trace)
		var res struct {
			Correct bool
			Metrics map[string]struct {
				Value float64
				Unit  string
			}
		}
		if !sc.Scan() || json.Unmarshal(sc.Bytes(), &res) != nil {
			return nil, fmt.Errorf("%s: no result line after the stamp", run)
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s is not correct (%s); no snapshot written", run, strings.Join(st.Failures, "; "))
		}
		if len(values) > 0 && st.Host != snap.Host {
			return nil, fmt.Errorf("%s has host stamp %+v; earlier runs had %+v", run, st.Host, snap.Host)
		}
		snap.Host = st.Host
		if !slices.Contains(snap.Seeds, st.Seed) {
			snap.Seeds = append(snap.Seeds, st.Seed)
		}
		for name, m := range res.Metrics {
			key := st.Workload + " " + name
			values[key] = append(values[key], m.Value)
			snap.Metrics[key] = summarize(m.Unit, values[key])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(values) == 0 {
		return nil, errors.New("no perfbench runs on stdin")
	}
	return snap, nil
}

// summarize returns the order statistics of xs; quartiles interpolate
// linearly between order statistics, as perfbench's percentiles do.
func summarize(unit string, xs []float64) Summary {
	s := slices.Clone(xs)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return Summary{Unit: unit, N: len(s), Min: s[0], Q1: q(0.25), Median: q(0.5), Q3: q(0.75), Max: s[len(s)-1]}
}

// benchmarkJSON is what -diff reads of BENCHMARK.json: by how much of its
// old median each end-to-end metric may worsen, in the direction better.
type benchmarkJSON struct {
	EndToEnd []bound `json:"end_to_end"`
}

type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSnapshot reads one snapshot. The go test -bench snapshots from
// before perfbench have no metrics map and are rejected.
func loadSnapshot(path string) (*Snapshot, error) {
	var s Snapshot
	if err := readJSON(path, &s); err != nil {
		return nil, err
	}
	if len(s.Metrics) == 0 {
		return nil, fmt.Errorf("%s is not a perfbench snapshot (no metrics); snapshots of the go test -bench harness cannot be diffed", path)
	}
	return &s, nil
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(blob, v)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// agree reports whether a and b are equal within 1e-9 relative: the float
// noise of a per-solve mean of integer counts.
func agree(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// verdict applies the gate to one metric present in the old snapshot.
// kind is how it is gated: "counter", "end-to-end" or "" for printed
// only; failure says why it fails, or is empty.
func verdict(name string, o, n Summary, inNew bool, bounds []bound) (kind, failure string) {
	i := slices.IndexFunc(bounds, func(b bound) bool { return b.Name == name })
	switch {
	case agree(o.Min, o.Max):
		kind = "counter"
		if !agree(n.Min, o.Min) || !agree(n.Max, o.Max) {
			failure = fmt.Sprintf("counter moved from %.10g to [%.10g, %.10g]", o.Median, n.Min, n.Max)
		}
	case i >= 0:
		kind = "end-to-end"
		b, worse := bounds[i], n.Median-o.Median
		if b.Better == "higher" {
			worse = -worse
		}
		if iqr := o.Q3 - o.Q1; worse > b.Bound*math.Abs(o.Median) && worse > iqr {
			failure = fmt.Sprintf("median worse by %.4g, beyond the %g bound (%.4g) and the old IQR (%.4g)",
				worse, b.Bound, b.Bound*math.Abs(o.Median), iqr)
		}
	}
	if kind != "" && !inNew {
		failure = kind + " missing from the new snapshot"
	}
	return kind, failure
}

// runDiff prints each metric's old and new median and quartiles with its
// verdict, and returns an error naming every metric that fails the gate.
func runDiff(w io.Writer, oldPath, newPath string, bounds []bound) error {
	oldS, err := loadSnapshot(oldPath)
	if err != nil {
		return err
	}
	newS, err := loadSnapshot(newPath)
	if err != nil {
		return err
	}
	for i, s := range []*Snapshot{oldS, newS} {
		fmt.Fprintf(w, "%s: %s, commit %s, %s, GOMAXPROCS %d, %d CPUs, %gs runs, seeds %v\n",
			[]string{oldPath, newPath}[i], s.Date, s.Commit, s.Go, s.GOMAXPROCS, s.NumCPU, s.Seconds, s.Seeds)
	}
	union := maps.Clone(newS.Metrics)
	maps.Copy(union, oldS.Metrics)
	ids := make([]string, 0, len(union))
	for id := range union {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var failures []string
	for _, id := range ids {
		o, inOld := oldS.Metrics[id]
		n, inNew := newS.Metrics[id]
		status, failure := "new", ""
		if inOld {
			status, failure = verdict(id[strings.IndexByte(id, ' ')+1:], o, n, inNew, bounds)
		}
		if failure != "" {
			failures = append(failures, id+": "+failure)
			status = "FAIL " + failure
		}
		fmt.Fprintf(w, "%-38s %34s -> %-34s %s\n", id, quartiles(o), quartiles(n), status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d metrics failed the gate:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

// quartiles prints a summary as its median and quartiles.
func quartiles(s Summary) string { return fmt.Sprintf("%.7g [%.7g, %.7g]", s.Median, s.Q1, s.Q3) }
