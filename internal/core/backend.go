package core

import (
	"afp/internal/geom"
	"afp/internal/netlist"
)

// ChipWidthFor resolves the chip width a solve of d under cfg will use:
// cfg.ChipWidth when positive, otherwise the automatic width derived
// from the total padded module area. Racing backends call it up front so
// every contestant solves the same fixed-width instance and their
// heights are comparable.
func ChipWidthFor(d *netlist.Design, cfg Config) float64 {
	c := cfg.withDefaults(d)
	return c.ChipWidth
}

// PackBottomLeft packs axis-aligned boxes of the given dimensions into a
// chip of width chipW with the skyline bottom-left heuristic used to
// seed every MILP step, in slice order, and returns their placements.
// Heuristic backends (the portfolio's projection backend) use it to
// legalize near-feasible layouts: the packing never overlaps and never
// exceeds the chip width as long as each ws[i] <= chipW.
func PackBottomLeft(ws, hs []float64, chipW float64) []geom.Rect {
	return bottomLeft(nil, ws, hs, chipW)
}
