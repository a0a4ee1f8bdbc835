// End-to-end tests of the command-line tools: each binary is compiled
// once into a temp dir and driven through its primary flows.
package afp_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"afp/internal/obs"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func buildCLIs(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "afp-bin")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"floorplan", "experiments", "mipsolve", "floorpland", "floorplantrace"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "./cmd/"+tool)
			out, err := cmd.CombinedOutput()
			if err != nil {
				buildErr = err
				println(string(out))
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building CLIs: %v", buildErr)
	}
	return binDir
}

func runCLI(t *testing.T, name string, stdin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildCLIs(t), name), args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCLIFloorplanRandomDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e in -short mode")
	}
	dir := t.TempDir()
	svg := filepath.Join(dir, "out.svg")
	trace := filepath.Join(dir, "out.jsonl")
	out := runCLI(t, "floorplan", "",
		"-design", "rand8", "-group", "3", "-nodes", "500",
		"-ascii", "-verbose", "-trace", trace, "-route", "-svg", svg)
	for _, want := range []string{"utilization", "step 0", "routed:", "wrote"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(svg)
	if err != nil || !strings.HasPrefix(string(data), "<svg") {
		t.Fatalf("SVG not written: %v", err)
	}

	// The trace must be valid JSONL covering the whole solve: step-level
	// events, branch-and-bound node lifecycles and timed LP solves.
	tf, err := os.Open(trace)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	defer tf.Close()
	events, err := obs.ReadJSONL(tf)
	if err != nil {
		t.Fatalf("trace not valid JSONL: %v", err)
	}
	rec := &obs.Recorder{}
	for _, e := range events {
		rec.Emit(e)
	}
	for _, k := range []obs.Kind{obs.KindStepStart, obs.KindStepDone, obs.KindNodeOpen, obs.KindLPSolve, obs.KindSearchDone} {
		if rec.CountKind(k) == 0 {
			t.Errorf("trace has no %s events (%d total)", k, len(events))
		}
	}
	if e, ok := rec.LastKind(obs.KindLPSolve); ok && e.DurUS < 0 {
		t.Errorf("lp.solve event has negative duration: %+v", e)
	}
}

// TestCLIFloorplanWarnsOnUnprovenSteps checks the stderr warning for
// steps cut short by the node limit, and its absence when every step is
// proven.
func TestCLIFloorplanWarnsOnUnprovenSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e in -short mode")
	}
	out := runCLI(t, "floorplan", "", "-design", "rand12", "-nodes", "5")
	if want := "floorplan: warning: 4 of 4 augmentation steps stopped at a limit; the floorplan is not proven step-optimal"; !strings.Contains(out, want) {
		t.Fatalf("output missing %q:\n%s", want, out)
	}
	out = runCLI(t, "floorplan", "", "-design", "rand8", "-group", "3", "-nodes", "500", "-verbose")
	if strings.Contains(out, "warning") {
		t.Fatalf("fully proven run warned:\n%s", out)
	}
	if strings.Count(out, ", optimal, height") != 3 {
		t.Fatalf("expected three proven steps:\n%s", out)
	}
}

func TestCLIFloorplanSAMethod(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e in -short mode")
	}
	for _, backend := range []string{"anneal", "seqpair"} {
		out := runCLI(t, "floorplan", "", "-design", "rand10", "-backend", backend)
		if !strings.Contains(out, "winner "+backend) {
			t.Fatalf("%s race output missing:\n%s", backend, out)
		}
	}
}

func TestCLIFloorplanNetlistFile(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e in -short mode")
	}
	dir := t.TempDir()
	nl := filepath.Join(dir, "d.netlist")
	src := `design clitest
module a rigid 4 3 rot
module b flexible 12 0.5 2
module c rigid 2 5
net n1 a b
net n2 b c
`
	if err := os.WriteFile(nl, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, "floorplan", "", "-input", nl, "-nodes", "500")
	if !strings.Contains(out, "design clitest: 3 modules") {
		t.Fatalf("netlist input not honored:\n%s", out)
	}
}

func TestCLIFloorplanBookshelf(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e in -short mode")
	}
	dir := t.TempDir()
	blocks := filepath.Join(dir, "d.blocks")
	nets := filepath.Join(dir, "d.nets")
	if err := os.WriteFile(blocks, []byte(`UCSC blocks 1.0
NumSoftRectangularBlocks : 1
NumHardRectilinearBlocks : 2
NumTerminals : 0
sb0 softrectangular 12 0.5 2.0
bk1 hardrectilinear 4 (0, 0) (0, 3) (4, 3) (4, 0)
bk2 hardrectilinear 4 (0, 0) (0, 5) (2, 5) (2, 0)
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(nets, []byte(`UCLA nets 1.0
NumNets : 1
NumPins : 2
NetDegree : 2
sb0 B
bk1 B
`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, "floorplan", "", "-blocks", blocks, "-nets", nets, "-nodes", "500")
	if !strings.Contains(out, "3 modules") {
		t.Fatalf("bookshelf input not honored:\n%s", out)
	}
}

func TestCLIMipsolve(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e in -short mode")
	}
	model := `maximize
bin a 10
bin b 13
bin c 7
bin d 5
con cap <= 6 3 a 4 b 2 c 1 d
`
	out := runCLI(t, "mipsolve", model)
	if !strings.Contains(out, "status: optimal") || !strings.Contains(out, "objective: 22") {
		t.Fatalf("mipsolve output wrong:\n%s", out)
	}

	// General models whose costs favour infinite bounds.
	for _, tc := range []struct {
		name, model string
		args        []string
		want        []string
	}{
		{"textbook maximize LP", `maximize
var x 0 inf 3
var y 0 inf 5
con c1 <= 4 1 x
con c2 <= 12 2 y
con c3 <= 18 3 x 2 y
`, nil, []string{"status: optimal", "objective: 36"}},
		{"unbounded", `var x 0 inf -1
var y 0 inf 1
con c <= 3 -1 x 1 y
`, nil, []string{"status: unbounded"}},
		// Backtracking relaxes branched integers back to an infinite upper
		// bound; the optimum is 107/9, and a warm re-solve that stops at a
		// suboptimal vertex reports 12.
		{"relaxed integer bounds", `int x0 0 inf 3
var x1 0 inf 5
int x2 0 inf 4
var x3 0 inf 3
int x4 0 inf 3
con c0 <= 2.3 -2.5 x0 -3.5 x2 -0.5 x4
con c1 >= 13.3 3.5 x0 4.5 x1 4.5 x2 3.5 x4
`, []string{"-workers", "1"}, []string{"status: optimal", "objective: 11.888"}},
	} {
		out := runCLI(t, "mipsolve", tc.model, tc.args...)
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Fatalf("%s: output missing %q:\n%s", tc.name, want, out)
			}
		}
	}
}

func TestCLIExperimentsFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI e2e in -short mode")
	}
	out := runCLI(t, "experiments", "", "-figure", "1")
	if !strings.Contains(out, "h tangent") {
		t.Fatalf("figure 1 output wrong:\n%s", out)
	}
	out = runCLI(t, "experiments", "", "-figure", "4")
	if !strings.Contains(out, "covering rectangles") {
		t.Fatalf("figure 4 output wrong:\n%s", out)
	}
}
