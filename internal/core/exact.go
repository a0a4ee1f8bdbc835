package core

import "afp/internal/netlist"

// FloorplanExact solves the paper's initial formulation (Section 2.3): a
// single mixed integer program over all K modules at once, with K(K-1)
// 0-1 variables. The paper shows this is practical only for small K
// (LINDO capped out around 10-12 modules) — which is exactly why
// successive augmentation exists — but for those sizes it yields the true
// optimum and quantifies the suboptimality of the greedy decomposition
// (see BenchmarkAblationExact).
//
// It is successive augmentation whose first group is every module, in
// design order, so the result's Steps slice holds the one solve.
func FloorplanExact(d *netlist.Design, cfg Config) (*Result, error) {
	cfg.SeedSize = len(d.Modules)
	cfg.Ordering = allIndices(len(d.Modules))
	return Floorplan(d, cfg)
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
