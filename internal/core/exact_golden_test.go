package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"afp/internal/geom"
	"afp/internal/milp"
	"afp/internal/mipmodel"
	"afp/internal/netlist"
)

// placementDigest hashes the float bits of every placement's envelope
// and module rectangle, in placement order, with its index and rotation.
func placementDigest(r *Result) string {
	h := sha256.New()
	put := func(u uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, u)) }
	for _, p := range r.Placements {
		put(uint64(p.Index))
		if p.Rotated {
			put(1)
		} else {
			put(0)
		}
		for _, rc := range [2]geom.Rect{p.Env, p.Mod} {
			for _, v := range [4]float64{rc.X, rc.Y, rc.W, rc.H} {
				put(math.Float64bits(v))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestFloorplanExactGolden pins FloorplanExact bit for bit at Workers: 1:
// the chip's width and height, every placement (as a digest of its float
// bits) and the single step's search counters. The rand designs stop at
// 600 nodes, so the node limit binds and the whole search order counts.
func TestFloorplanExactGolden(t *testing.T) {
	node600 := milp.Options{MaxNodes: 600}
	golden := []struct {
		name               string
		d                  *netlist.Design
		cfg                Config
		width, height      uint64 // math.Float64bits
		placements         string // placementDigest
		nodes, iters, pivs int
		refactors, bins    int
		status             milp.Status
	}{
		{"tiny", tinyDesign(), Config{ChipWidth: 6},
			0x4018000000000000, 0x4017ffffffffffdc, "9593c816d02c158d", 1487, 6589, 6589, 102, 14, milp.StatusOptimal},
		{"tiny/post", tinyDesign(), Config{ChipWidth: 6, PostOptimize: true, AdjustIterations: 2},
			0x4018000000000000, 0x4017ffffffffffff, "e93eb5b2357cccea", 1487, 6589, 6589, 102, 14, milp.StatusOptimal},
		{"rand6-66/w50", netlist.Random(6, 66), Config{ChipWidth: 50, MILP: node600},
			0x4049000000000000, 0x404b4438623af8e0, "38bf90f525c8cfa7", 600, 3556, 3556, 55, 34, milp.StatusFeasible},
		{"rand6-66/auto", netlist.Random(6, 66), Config{MILP: node600},
			0x4048062d48fde883, 0x404e1c9363453abd, "224fd8fdb95b4965", 600, 4439, 4439, 69, 34, milp.StatusFeasible},
		{"rand7-7/areawire", netlist.Random(7, 7), Config{Objective: mipmodel.AreaWire, WireWeight: 0.02, MILP: node600},
			0x404f95f1cd63c143, 0x404819008e906b7c, "5269bbc57eda2360", 600, 7987, 7987, 124, 47, milp.StatusFeasible},
		{"rand6-9/envelopes+post", netlist.Random(6, 9), Config{Envelopes: true, PostOptimize: true, MILP: node600},
			0x40488ec320ab8828, 0x404a6d053cd06550, "64c7a55b85f2f542", 600, 3566, 3566, 55, 34, milp.StatusFeasible},
		{"rand5-3/nopresolve", netlist.Random(5, 3), Config{NoPresolve: true, MILP: node600},
			0x404640621c3d828d, 0x4046a553138b9b38, "a2c52bc0fbae3a84", 600, 2810, 2810, 43, 24, milp.StatusFeasible},
		{"rand6-5/tangent", netlist.Random(6, 5), Config{Linearize: mipmodel.Tangent, MILP: node600},
			0x404d8c1b4554f5fd, 0x40490e69ec82a418, "2f481aa2e8b8a295", 600, 2660, 2660, 41, 34, milp.StatusFeasible},
		{"rand8-81", netlist.Random(8, 81), Config{MILP: node600},
			0x404cda7f18841444, 0x4050968ee656e2ce, "52e83e42fc94b746", 600, 4936, 4936, 77, 62, milp.StatusFeasible},
	}
	for _, g := range golden {
		cfg := g.cfg
		cfg.Workers = 1
		r, err := FloorplanExact(g.d, cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if math.Float64bits(r.ChipWidth) != g.width || math.Float64bits(r.Height) != g.height {
			t.Errorf("%s: chip %v x %v, golden %v x %v", g.name, r.ChipWidth, r.Height,
				math.Float64frombits(g.width), math.Float64frombits(g.height))
		}
		if got := placementDigest(r); got != g.placements {
			t.Errorf("%s: placement digest %s, golden %s", g.name, got, g.placements)
		}
		if len(r.Steps) != 1 {
			t.Fatalf("%s: %d steps, want 1", g.name, len(r.Steps))
		}
		st := r.Steps[0]
		got := [6]int{st.Nodes, st.LPIters, st.DualPivots, st.Refactors, st.Binaries, int(st.Status)}
		want := [6]int{g.nodes, g.iters, g.pivs, g.refactors, g.bins, int(g.status)}
		if got != want {
			t.Errorf("%s: nodes, LP iterations, dual pivots, refactors, binaries, status = %v, golden %v",
				g.name, got, want)
		}
	}
}
