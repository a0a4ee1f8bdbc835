package route

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"afp/internal/core"
	"afp/internal/geom"
	"afp/internal/netlist"
)

// twoBlockPlan builds a minimal floorplan by hand: two 4x4 modules side
// by side with a 2-unit channel between them on a 10x4 chip.
func twoBlockPlan() *core.Result {
	d := &netlist.Design{
		Name: "two",
		Modules: []netlist.Module{
			{Name: "a", Kind: netlist.Rigid, W: 4, H: 4, Pins: [4]int{1, 1, 1, 1}},
			{Name: "b", Kind: netlist.Rigid, W: 4, H: 4, Pins: [4]int{1, 1, 1, 1}},
		},
		Nets: []netlist.Net{{Name: "n1", Modules: []int{0, 1}, Weight: 1}},
	}
	return &core.Result{
		Design:    d,
		ChipWidth: 10,
		Height:    4,
		Placements: []core.Placement{
			{Index: 0, Env: geom.NewRect(0, 0, 4, 4), Mod: geom.NewRect(0, 0, 4, 4)},
			{Index: 1, Env: geom.NewRect(6, 0, 4, 4), Mod: geom.NewRect(6, 0, 4, 4)},
		},
	}
}

func TestGraphConstruction(t *testing.T) {
	fp := twoBlockPlan()
	g := buildGraph(fp.Envelopes(), fp.ChipWidth, fp.Height, 0.1, 0.1)
	if len(g.Nodes) == 0 || len(g.Edges) == 0 {
		t.Fatalf("empty graph: %d nodes, %d edges", len(g.Nodes), len(g.Edges))
	}
	// No node may lie strictly inside a module.
	for _, n := range g.Nodes {
		for _, r := range fp.Envelopes() {
			if n.X > r.X+1e-9 && n.X < r.X2()-1e-9 && n.Y > r.Y+1e-9 && n.Y < r.Y2()-1e-9 {
				t.Fatalf("node (%v,%v) inside module %v", n.X, n.Y, r)
			}
		}
	}
	// No edge may cross a module interior: check midpoints.
	for _, e := range g.Edges {
		mx := (g.Nodes[e.A].X + g.Nodes[e.B].X) / 2
		my := (g.Nodes[e.A].Y + g.Nodes[e.B].Y) / 2
		for _, r := range fp.Envelopes() {
			if mx > r.X+1e-9 && mx < r.X2()-1e-9 && my > r.Y+1e-9 && my < r.Y2()-1e-9 {
				t.Fatalf("edge through module: (%v,%v)", mx, my)
			}
		}
	}
	// Capacities must be positive.
	for _, e := range g.Edges {
		if e.Cap < 1 {
			t.Fatalf("edge with capacity %d", e.Cap)
		}
	}
}

func TestRouteTwoBlocks(t *testing.T) {
	fp := twoBlockPlan()
	res, err := Route(fp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nets) != 1 {
		t.Fatalf("routed %d nets, want 1", len(res.Nets))
	}
	// The two facing pins are 6 apart (east of a at x=4, west of b at
	// x=6, both at y=2, channel between) -> length should be small, at
	// most going around: sanity bound 2..14.
	if res.Wirelength < 1 || res.Wirelength > 14 {
		t.Fatalf("wirelength = %v out of sane range", res.Wirelength)
	}
	if res.FinalW < fp.ChipWidth || res.FinalH < fp.Height {
		t.Fatalf("final chip %vx%v smaller than placed %vx%v",
			res.FinalW, res.FinalH, fp.ChipWidth, fp.Height)
	}
}

func TestRouteDeterministic(t *testing.T) {
	fp := twoBlockPlan()
	r1, err := Route(fp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Route(fp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Wirelength != r2.Wirelength || r1.Overflow != r2.Overflow {
		t.Fatal("routing not deterministic")
	}
}

// congestedPlan: two columns of modules forming a single narrow middle
// channel, with many nets crossing it.
func congestedPlan(nNets int) *core.Result {
	d := &netlist.Design{Name: "congested"}
	d.Modules = []netlist.Module{
		{Name: "a", Kind: netlist.Rigid, W: 4, H: 8, Pins: [4]int{1, 1, 1, 1}},
		{Name: "b", Kind: netlist.Rigid, W: 4, H: 8, Pins: [4]int{1, 1, 1, 1}},
	}
	for i := 0; i < nNets; i++ {
		d.Nets = append(d.Nets, netlist.Net{Name: "n", Modules: []int{0, 1}, Weight: 1})
	}
	return &core.Result{
		Design:    d,
		ChipWidth: 8.5,
		Height:    8,
		Placements: []core.Placement{
			{Index: 0, Env: geom.NewRect(0, 0, 4, 8), Mod: geom.NewRect(0, 0, 4, 8)},
			{Index: 1, Env: geom.NewRect(4.5, 0, 4, 8), Mod: geom.NewRect(4.5, 0, 4, 8)},
		},
	}
}

func TestWeightedSpreadsCongestion(t *testing.T) {
	fp := congestedPlan(12)
	sp, err := Route(fp, Config{Algorithm: ShortestPath, PitchH: 0.25, PitchV: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	wp, err := Route(fp, Config{Algorithm: WeightedShortestPath, PitchH: 0.25, PitchV: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	// Weighted routing trades length for congestion: overflow must not
	// increase, wirelength must not decrease.
	if wp.Overflow > sp.Overflow {
		t.Fatalf("weighted overflow %d > shortest %d", wp.Overflow, sp.Overflow)
	}
	if wp.Wirelength < sp.Wirelength-1e-9 {
		t.Fatalf("weighted wirelength %v < shortest %v", wp.Wirelength, sp.Wirelength)
	}
}

func TestCriticalNetsRoutedFirst(t *testing.T) {
	fp := congestedPlan(6)
	fp.Design.Nets[5].Critical = true
	res, err := Route(fp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nets) != 6 {
		t.Fatalf("routed %d nets", len(res.Nets))
	}
	if res.Nets[0].Net != 5 || !res.Nets[0].Critical {
		t.Fatalf("critical net routed at position != 0: first is net %d", res.Nets[0].Net)
	}
	// Critical net gets the cheapest (uncongested) path.
	for _, nr := range res.Nets[1:] {
		if nr.Length+1e-9 < res.Nets[0].Length {
			// Others may be shorter only if congestion did not matter; with
			// ShortestPath all paths are equal-length, so this must not happen.
			t.Fatalf("critical net longer (%v) than later net (%v)", res.Nets[0].Length, nr.Length)
		}
	}
}

func TestChannelSlackReducesExpansion(t *testing.T) {
	// The Table 3 mechanism in isolation: the same two modules and nets,
	// once packed with zero channel slack (abutting) and once with a
	// reserved 1-unit channel (what envelopes provide). The tight plan
	// must expand more during channel adjustment.
	build := func(gap float64) *core.Result {
		d := &netlist.Design{Name: "slack"}
		d.Modules = []netlist.Module{
			{Name: "a", Kind: netlist.Rigid, W: 4, H: 8, Pins: [4]int{1, 1, 1, 1}},
			{Name: "b", Kind: netlist.Rigid, W: 4, H: 8, Pins: [4]int{1, 1, 1, 1}},
		}
		for i := 0; i < 8; i++ {
			d.Nets = append(d.Nets, netlist.Net{Name: "n", Modules: []int{0, 1}, Weight: 1})
		}
		return &core.Result{
			Design:    d,
			ChipWidth: 8 + gap,
			Height:    8,
			Placements: []core.Placement{
				{Index: 0, Env: geom.NewRect(0, 0, 4, 8), Mod: geom.NewRect(0, 0, 4, 8)},
				{Index: 1, Env: geom.NewRect(4+gap, 0, 4, 8), Mod: geom.NewRect(4+gap, 0, 4, 8)},
			},
		}
	}
	tight, err := Route(build(0), Config{PitchH: 0.2, PitchV: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	slack, err := Route(build(1), Config{PitchH: 0.2, PitchV: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	expandTight := tight.FinalW - 8
	expandSlack := slack.FinalW - 9
	if expandSlack >= expandTight {
		t.Fatalf("slack expansion %v not below tight expansion %v", expandSlack, expandTight)
	}
}

func TestRouteAMI33Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ami33 routing in -short mode")
	}
	d := netlist.AMI33()
	// Only the first 12 modules to keep the test fast.
	d.Modules = d.Modules[:12]
	var nets []netlist.Net
	for _, n := range d.Nets {
		ok := true
		for _, m := range n.Modules {
			if m >= 12 {
				ok = false
				break
			}
		}
		if ok {
			nets = append(nets, n)
		}
	}
	d.Nets = nets
	fp, err := core.Floorplan(d, core.Config{GroupSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(fp, Config{Algorithm: WeightedShortestPath})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wirelength <= 0 {
		t.Fatalf("wirelength = %v", res.Wirelength)
	}
	if res.FinalArea() < fp.ChipArea() {
		t.Fatalf("final area %v below placed area %v", res.FinalArea(), fp.ChipArea())
	}
}

func TestCapFromGap(t *testing.T) {
	if c := capFromGap(1.0, 0.1); c != 10 {
		t.Fatalf("capFromGap(1, .1) = %d", c)
	}
	if c := capFromGap(0, 0.1); c != 1 {
		t.Fatalf("zero gap cap = %d, want 1", c)
	}
	if c := capFromGap(0.5, 0); c < 1 {
		t.Fatalf("default pitch cap = %d", c)
	}
}

func TestCorridors(t *testing.T) {
	envs := []geom.Rect{geom.NewRect(0, 0, 4, 4), geom.NewRect(0, 6, 4, 4)}
	// Horizontal line at y=5 between the two blocks: corridor = 2.
	if g := corridorH(envs, 0, 4, 5, 10); math.Abs(g-2) > 1e-9 {
		t.Fatalf("corridorH = %v, want 2", g)
	}
	// At y=5 outside the blocks' x-range: full chip height.
	if g := corridorH(envs, 5, 8, 5, 10); math.Abs(g-10) > 1e-9 {
		t.Fatalf("corridorH open = %v, want 10", g)
	}
	// Vertical line at x=5, right of both blocks (chip width 12): gap from
	// block edge (4) to chip edge (12) = 8.
	if g := corridorV(envs, 0, 4, 5, 12); math.Abs(g-8) > 1e-9 {
		t.Fatalf("corridorV = %v, want 8", g)
	}
}

func TestAlgorithmStrings(t *testing.T) {
	if ShortestPath.String() != "shortest-path" || WeightedShortestPath.String() != "weighted-shortest-path" {
		t.Fatal("Algorithm strings")
	}
}

// refDijkstra is the router's original search, kept as the reference
// for the early-stopping one: a full Dijkstra from the source set on
// container/heap. It returns every node's cost and the edge used to
// reach it (-1 for sources and unreached nodes).
func refDijkstra(g *Graph, sources []int, cfg Config) (dist []float64, prevEdge []int) {
	n := len(g.Nodes)
	dist = make([]float64, n)
	prevEdge = make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = -1
	}
	pq := &refHeap{}
	for _, s := range sources {
		dist[s] = 0
		heap.Push(pq, nodeDist{s, 0})
	}
	for pq.Len() > 0 {
		nd := heap.Pop(pq).(nodeDist)
		if nd.d > dist[nd.n]+1e-12 {
			continue
		}
		for _, ei := range g.adj[nd.n] {
			e := &g.Edges[ei]
			c := g.edgeCost(e, cfg)
			o := e.Other(nd.n)
			if nd.d+c < dist[o]-1e-12 {
				dist[o] = nd.d + c
				prevEdge[o] = ei
				heap.Push(pq, nodeDist{o, dist[o]})
			}
		}
	}
	return dist, prevEdge
}

type refHeap []nodeDist

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(nodeDist)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// pathBack lists the edges from n back to a source along prevEdge.
func pathBack(g *Graph, prevEdge []int, n int) []int {
	var path []int
	for prevEdge[n] >= 0 {
		path = append(path, prevEdge[n])
		n = g.Edges[prevEdge[n]].Other(n)
	}
	return path
}

// randomPacking places up to n non-overlapping modules with corners on a
// half-unit lattice of a w x h chip, so modules abut, grid lines
// coincide and path costs tie often.
func randomPacking(rng *rand.Rand, n int, w, h float64) []geom.Rect {
	var envs []geom.Rect
	for tries := 0; len(envs) < n && tries < 50*n; tries++ {
		rw, rh := 0.5*float64(1+rng.Intn(8)), 0.5*float64(1+rng.Intn(8))
		if rw > w || rh > h {
			continue
		}
		x := 0.5 * float64(rng.Intn(int((w-rw)/0.5)+1))
		y := 0.5 * float64(rng.Intn(int((h-rh)/0.5)+1))
		r := geom.NewRect(x, y, rw, rh)
		ok := true
		for _, o := range envs {
			if r.Overlaps(o) {
				ok = false
				break
			}
		}
		if ok {
			envs = append(envs, r)
		}
	}
	return envs
}

// symmetricPlan is a 3x3 array of equal modules with equal channels:
// every grid path between two nodes has mirror twins of the same cost,
// so which of two equal keys leaves the heap first decides the path.
func symmetricPlan() []geom.Rect {
	var envs []geom.Rect
	for _, x := range []float64{0, 3, 6} {
		for _, y := range []float64{0, 3, 6} {
			envs = append(envs, geom.NewRect(x, y, 2, 2))
		}
	}
	return envs
}

// checkNearest draws random congestion, sources and targets on g and
// requires the early-stopping search to agree with the full reference
// search on the chosen target, the bits of its cost, and its path back
// to a source; every node at most that far away must also carry the
// reference's cost and predecessor edge. One search value serves every
// draw, so stale scratch would show.
func checkNearest(t *testing.T, name string, g *Graph, rng *rand.Rand, draws int) {
	t.Helper()
	n := len(g.Nodes)
	for _, alg := range []Algorithm{ShortestPath, WeightedShortestPath} {
		cfg := Config{Algorithm: alg, Penalty: 4}
		s := newSearch(g, cfg)
		for draw := 0; draw < draws; draw++ {
			for i := range g.Edges {
				g.Edges[i].Util = rng.Intn(g.Edges[i].Cap + 3)
			}
			seen := map[int]bool{}
			var srcs []int
			for k := 1 + rng.Intn(4); k > 0; k-- {
				if v := rng.Intn(n); !seen[v] {
					seen[v] = true
					srcs = append(srcs, v)
				}
			}
			sort.Ints(srcs)
			targets := make([]int, 1+rng.Intn(6))
			for k := range targets {
				targets[k] = rng.Intn(n) // may repeat or be a source
			}

			dist, prevEdge := refDijkstra(g, srcs, cfg)
			want, wd := -1, math.Inf(1)
			for k, v := range targets {
				if dist[v] < wd {
					want, wd = k, dist[v]
				}
			}
			got := s.nearest(srcs, targets)
			where := fmt.Sprintf("%s, %v, draw %d", name, alg, draw)
			if got != want {
				t.Fatalf("%s: target %d, reference %d (sources %v, targets %v)", where, got, want, srcs, targets)
			}
			if want < 0 {
				continue
			}
			v := targets[want]
			if math.Float64bits(s.dist[v]) != math.Float64bits(wd) {
				t.Fatalf("%s: cost %v, reference %v", where, s.dist[v], wd)
			}
			if gp, wp := pathBack(g, s.prevEdge, v), pathBack(g, prevEdge, v); !slices.Equal(gp, wp) {
				t.Fatalf("%s: path %v, reference %v", where, gp, wp)
			}
			for u := range dist {
				if dist[u] <= wd && (math.Float64bits(s.dist[u]) != math.Float64bits(dist[u]) || s.prevEdge[u] != prevEdge[u]) {
					t.Fatalf("%s: node %d at cost %v (edge %d), reference %v (edge %d)",
						where, u, s.dist[u], s.prevEdge[u], dist[u], prevEdge[u])
				}
			}
		}
	}
}

func TestNearestMatchesFullSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		w, h := float64(8+rng.Intn(12)), float64(8+rng.Intn(12))
		envs := randomPacking(rng, 4+rng.Intn(16), w, h)
		checkNearest(t, fmt.Sprintf("packing %d", i), buildGraph(envs, w, h, 0.2, 0.2), rng, 40)
	}
	checkNearest(t, "symmetric", buildGraph(symmetricPlan(), 8, 8, 0.2, 0.2), rng, 200)
	for _, env := range []bool{false, true} {
		fp := table3Plan(t, env)
		mods := make([]geom.Rect, len(fp.Placements))
		for i, p := range fp.Placements {
			mods[i] = p.Mod
		}
		checkNearest(t, fmt.Sprintf("ami33 envelopes=%v", env), buildGraph(mods, fp.ChipWidth, fp.Height, 0.2, 0.2), rng, 40)
	}
}
