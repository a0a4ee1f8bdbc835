package route

import (
	"fmt"
	"math"
	"sort"

	"afp/internal/core"
	"afp/internal/geom"
	"afp/internal/netlist"
	"afp/internal/track"
)

// Algorithm selects the edge-cost model, matching the two routing
// algorithms of Table 3.
type Algorithm int

// Routing algorithms.
const (
	// ShortestPath routes every connection along the geometrically
	// shortest channel path, ignoring congestion.
	ShortestPath Algorithm = iota
	// WeightedShortestPath penalizes channels routed beyond their
	// preliminary capacity, spreading congestion (Section 3.2).
	WeightedShortestPath
)

func (a Algorithm) String() string {
	if a == ShortestPath {
		return "shortest-path"
	}
	return "weighted-shortest-path"
}

// Config tunes the global router.
type Config struct {
	// PitchH and PitchV are the per-track routing pitches (metal width
	// plus spacing) in the horizontal and vertical direction. Zero
	// defaults to 0.1 layout units.
	PitchH, PitchV float64
	// Algorithm selects the edge-cost model.
	Algorithm Algorithm
	// Penalty multiplies the over-capacity cost of WeightedShortestPath.
	// Zero defaults to 4.
	Penalty float64
}

// NetRoute is the routed realization of one net.
type NetRoute struct {
	Net      int     // index into Design.Nets
	Length   float64 // total routed channel length
	Edges    []int   // edge indices into Graph.Edges
	Critical bool
}

// Result is the outcome of global routing.
type Result struct {
	Graph      *Graph
	Nets       []NetRoute
	Wirelength float64 // total routed length over all nets
	Overflow   int     // total demand beyond channel capacities

	// Final chip dimensions after channel-width adjustment (Section 3.2
	// last step / Table 3): the placed chip grown to accommodate the
	// routed track demand that does not fit the existing channels.
	FinalW, FinalH float64
}

// FinalArea returns the routed chip area after channel adjustment.
func (r *Result) FinalArea() float64 { return r.FinalW * r.FinalH }

// Route globally routes all nets of the floorplan fp.
func Route(fp *core.Result, cfg Config) (*Result, error) {
	if cfg.PitchH <= 0 {
		cfg.PitchH = 0.1
	}
	if cfg.PitchV <= 0 {
		cfg.PitchV = 0.1
	}
	if cfg.Penalty <= 0 {
		cfg.Penalty = 4
	}
	d := fp.Design
	// Blockages are the module bodies, not the envelopes: the envelope
	// padding of Section 3.2 exists precisely to reserve routable channel
	// space next to each module, so the router must be allowed to use it.
	// Without envelopes Mod == Env and nothing changes.
	envs := make([]geom.Rect, len(fp.Placements))
	for i, p := range fp.Placements {
		envs[i] = p.Mod
	}
	chipW, chipH := fp.ChipWidth, fp.Height
	if chipH <= 0 {
		chipH = 1
	}
	g := buildGraph(envs, chipW, chipH, cfg.PitchH, cfg.PitchV)
	if len(g.Nodes) == 0 {
		return nil, fmt.Errorf("route: empty channel graph")
	}

	// Generalized pins: one per module side, at the midpoint of the
	// envelope edge (Section 3.2: four generalized pins per module).
	pinNodes := make(map[int][4]int, len(fp.Placements))
	for _, p := range fp.Placements {
		e := p.Mod
		var pn [4]int
		pn[netlist.North] = g.NearestNode(e.CenterX(), e.Y2())
		pn[netlist.East] = g.NearestNode(e.X2(), e.CenterY())
		pn[netlist.South] = g.NearestNode(e.CenterX(), e.Y)
		pn[netlist.West] = g.NearestNode(e.X, e.CenterY())
		pinNodes[p.Index] = pn
	}

	orderIdx := netOrder(d)

	s := newSearch(g, cfg)
	res := &Result{Graph: g}
	for _, ni := range orderIdx {
		net := &d.Nets[ni]
		terms := netTerminals(fp, g, pinNodes, net)
		if len(terms) < 2 {
			continue
		}
		nr := NetRoute{Net: ni, Critical: net.Critical}
		// Decompose the multi-pin net into a spanning star built by
		// Prim-style nearest-terminal connection over the channel graph.
		connected := map[int]bool{terms[0]: true}
		remaining := terms[1:]
		for len(remaining) > 0 {
			srcs := make([]int, 0, len(connected))
			for n := range connected {
				srcs = append(srcs, n)
			}
			sort.Ints(srcs)
			bi := s.nearest(srcs, remaining)
			if bi < 0 {
				return nil, fmt.Errorf("route: net %q unroutable", net.Name)
			}
			t := remaining[bi]
			remaining = append(remaining[:bi], remaining[bi+1:]...)
			// Walk back, committing edges.
			for n := t; s.prevEdge[n] >= 0; {
				ei := s.prevEdge[n]
				e := &g.Edges[ei]
				e.Util++
				nr.Edges = append(nr.Edges, ei)
				nr.Length += e.Len
				connected[n] = true
				n = e.Other(n)
			}
			connected[t] = true
		}
		res.Wirelength += nr.Length
		res.Nets = append(res.Nets, nr)
	}

	res.Overflow = g.Overflow()
	res.FinalW, res.FinalH = adjustChannels(g, res.Nets, envs, chipW, chipH, cfg)
	return res, nil
}

// netOrder returns the routing priority: timing-critical nets first
// [YOU89], then by descending weight, then by index for determinism.
// Weights within the geometric tolerance tie-break by index rather than
// by float noise, so routing priority is stable under benign
// reformulations of the weights.
func netOrder(d *netlist.Design) []int {
	orderIdx := make([]int, len(d.Nets))
	for i := range orderIdx {
		orderIdx[i] = i
	}
	sort.SliceStable(orderIdx, func(a, b int) bool {
		na, nb := &d.Nets[orderIdx[a]], &d.Nets[orderIdx[b]]
		if na.Critical != nb.Critical {
			return na.Critical
		}
		wa, wb := na.Weight, nb.Weight
		if !geom.Eq(wa, wb) {
			return wa > wb
		}
		return orderIdx[a] < orderIdx[b]
	})
	return orderIdx
}

// netTerminals picks one generalized pin per module of the net: the pin
// node nearest to the centroid of the net's module centers.
func netTerminals(fp *core.Result, g *Graph, pinNodes map[int][4]int, net *netlist.Net) []int {
	var cx, cy float64
	var cnt int
	for _, mi := range net.Modules {
		if p := fp.PlacementOf(mi); p != nil {
			cx += p.Mod.CenterX()
			cy += p.Mod.CenterY()
			cnt++
		}
	}
	if cnt == 0 {
		return nil
	}
	cx /= float64(cnt)
	cy /= float64(cnt)
	var terms []int
	seen := map[int]bool{}
	for _, mi := range net.Modules {
		pn, ok := pinNodes[mi]
		if !ok {
			continue
		}
		best, bestD := pn[0], math.Inf(1)
		for _, n := range pn {
			nd := g.Nodes[n]
			d := math.Abs(nd.X-cx) + math.Abs(nd.Y-cy)
			if d < bestD {
				best, bestD = n, d
			}
		}
		if !seen[best] {
			seen[best] = true
			terms = append(terms, best)
		}
	}
	return terms
}

// search runs the router's shortest-path searches over one graph. Its
// scratch is sized to the graph once and reused by every search of a
// Route call.
type search struct {
	g        *Graph
	cfg      Config
	dist     []float64
	prevEdge []int // edge used to reach each node; -1 for sources and unreached
	heap     nodeHeap
	isTarget []bool
}

func newSearch(g *Graph, cfg Config) *search {
	n := len(g.Nodes)
	return &search{
		g: g, cfg: cfg,
		dist:     make([]float64, n),
		prevEdge: make([]int, n),
		isTarget: make([]bool, n),
	}
}

// nearest runs Dijkstra from the sources under the configured cost model
// and returns the index in targets of the first target at the least
// cost, or -1 when none is reachable; s.prevEdge then leads from that
// target back to a source. The search stops once the smallest heap key
// exceeds the cost of the nearest target settled so far, and the result
// is still that of a search over the whole graph (DESIGN.md §3): edge
// costs are positive, so a settled node keeps its cost and predecessor
// edge, every node at most as far as the chosen target is settled before
// the stop, and nodeHeap pops equal keys in container/heap's order.
func (s *search) nearest(sources, targets []int) int {
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.prevEdge[i] = -1
	}
	for _, t := range targets {
		s.isTarget[t] = true
	}
	s.heap = s.heap[:0]
	for _, src := range sources {
		s.dist[src] = 0
		s.heap.push(nodeDist{src, 0})
	}
	bound := math.Inf(1) // cost of the nearest target settled so far
	for len(s.heap) > 0 && s.heap[0].d <= bound {
		nd := s.heap.pop()
		if nd.d > s.dist[nd.n]+1e-12 {
			continue
		}
		if s.isTarget[nd.n] && nd.d < bound {
			bound = nd.d
		}
		for _, ei := range s.g.adj[nd.n] {
			e := &s.g.Edges[ei]
			c := s.g.edgeCost(e, s.cfg)
			o := e.Other(nd.n)
			if nd.d+c < s.dist[o]-1e-12 {
				s.dist[o] = nd.d + c
				s.prevEdge[o] = ei
				s.heap.push(nodeDist{o, s.dist[o]})
			}
		}
	}
	bi, bd := -1, math.Inf(1)
	for k, t := range targets {
		s.isTarget[t] = false
		if s.dist[t] < bd {
			bi, bd = k, s.dist[t]
		}
	}
	return bi
}

// edgeCost is the routing cost of adding one more track to edge e.
func (g *Graph) edgeCost(e *Edge, cfg Config) float64 {
	if cfg.Algorithm == ShortestPath {
		return e.Len + 1e-9 // epsilon keeps zero-length paths acyclic
	}
	// Weighted: every track beyond capacity adds a length-independent
	// penalty scaled by the mean channel length, so the marginal cost of
	// one overflow unit is uniform across long and short channels. (A
	// length-proportional penalty makes short saturated channels nearly
	// free to cross; detours then chain many short over-capacity
	// channels, each adding a full overflow unit, and the weighted
	// router produces more overflow than plain shortest path.)
	over := e.Util + 1 - e.Cap
	if over <= 0 {
		return e.Len + 1e-9
	}
	return e.Len + cfg.Penalty*float64(over)*g.meanLen + 1e-9
}

type nodeDist struct {
	n int
	d float64
}

// nodeHeap is a binary min-heap on d. push and pop make the same
// comparisons and swaps as container/heap's Push and Pop, so entries with
// equal keys leave in the same order.
type nodeHeap []nodeDist

func (h *nodeHeap) push(x nodeDist) {
	*h = append(*h, x)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !(q[j].d < q[i].d) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *nodeHeap) pop() nodeDist {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].d < q[j].d {
			j = j2
		}
		if !(q[j].d < q[i].d) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// adjustChannels grows the chip to fit routed demand that exceeds the
// existing channel slack: for every vertical grid line the routed net
// segments on that line are packed into tracks by the left-edge algorithm
// (package track), the track count is converted to required width and
// compared to the free corridor at that line, and the deficits are summed
// (and likewise for horizontal lines). With routing envelopes enabled the
// corridors already reserve pin-proportional space, so the deficits
// shrink — the effect Table 3 demonstrates.
func adjustChannels(g *Graph, nets []NetRoute, envs []geom.Rect, chipW, chipH float64, cfg Config) (finalW, finalH float64) {
	// Bucket each net's edges by the grid line they run along.
	vIntervals := make(map[int][]track.Interval) // XI -> segments along that vertical line
	hIntervals := make(map[int][]track.Interval) // YI -> segments along that horizontal line
	for netSeq, nr := range nets {
		for _, ei := range nr.Edges {
			e := g.Edges[ei]
			a, b := g.Nodes[e.A], g.Nodes[e.B]
			if e.Horizontal {
				lo, hi := a.X, b.X
				if lo > hi {
					lo, hi = hi, lo
				}
				hIntervals[a.YI] = append(hIntervals[a.YI], track.Interval{Net: netSeq, Lo: lo, Hi: hi})
			} else {
				lo, hi := a.Y, b.Y
				if lo > hi {
					lo, hi = hi, lo
				}
				vIntervals[a.XI] = append(vIntervals[a.XI], track.Interval{Net: netSeq, Lo: lo, Hi: hi})
			}
		}
	}

	extraW := 0.0
	for xi, x := range g.Xs {
		ivs := vIntervals[xi]
		if len(ivs) == 0 {
			continue
		}
		tracks := track.LeftEdge(track.MergePerNet(ivs)).Tracks
		need := float64(tracks) * cfg.PitchV
		minGap := math.Inf(1)
		for _, iv := range ivs {
			gap := corridorV(envs, iv.Lo, iv.Hi, x, chipW)
			if gap < minGap {
				minGap = gap
			}
		}
		if math.IsInf(minGap, 1) {
			minGap = 0
		}
		if need > minGap {
			extraW += need - minGap
		}
	}
	extraH := 0.0
	for yi, y := range g.Ys {
		ivs := hIntervals[yi]
		if len(ivs) == 0 {
			continue
		}
		tracks := track.LeftEdge(track.MergePerNet(ivs)).Tracks
		need := float64(tracks) * cfg.PitchH
		minGap := math.Inf(1)
		for _, iv := range ivs {
			gap := corridorH(envs, iv.Lo, iv.Hi, y, chipH)
			if gap < minGap {
				minGap = gap
			}
		}
		if math.IsInf(minGap, 1) {
			minGap = 0
		}
		if need > minGap {
			extraH += need - minGap
		}
	}
	return chipW + extraW, chipH + extraH
}
