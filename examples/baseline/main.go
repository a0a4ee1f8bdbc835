// Baseline comparison: the analytical MILP floorplanner of the paper
// versus the Wong-Liu slicing floorplanner driven by simulated annealing
// (the dominant approach the paper argues against) and the later
// sequence-pair annealer, both from package anneal. All three run on the
// same 20-module random design; the comparison reports area,
// utilization, wirelength and time.
package main

import (
	"fmt"
	"log"
	"time"

	"afp/internal/anneal"
	"afp/internal/core"
	"afp/internal/milp"
	"afp/internal/netlist"
)

func main() {
	d := netlist.Random(20, 7)
	fmt.Printf("design %s: %d modules, total area %.0f\n\n", d.Name, len(d.Modules), d.TotalArea())

	start := time.Now()
	milpRes, err := core.Floorplan(d, core.Config{
		GroupSize:    3,
		PostOptimize: true,
		MILP:         milp.Options{MaxNodes: 8000, TimeLimit: 10 * time.Second},
	})
	if err != nil {
		log.Fatal(err)
	}
	milpTime := time.Since(start)

	start = time.Now()
	saRes, err := anneal.Floorplan(d, anneal.Config{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	saTime := time.Since(start)

	start = time.Now()
	spRes, err := anneal.SeqPair(d, anneal.Config{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	spTime := time.Since(start)

	fmt.Printf("%-28s %10s %8s %10s %10s\n", "method", "area", "util %", "HPWL", "time")
	fmt.Printf("%-28s %10.0f %7.1f%% %10.0f %10v\n",
		"analytical (MILP, paper)", milpRes.ChipArea(), 100*milpRes.Utilization(),
		milpRes.HPWL(), milpTime.Round(time.Millisecond))
	fmt.Printf("%-28s %10.0f %7.1f%% %10.0f %10v\n",
		"slicing SA (Wong-Liu 1986)", saRes.ChipArea(), 100*d.TotalArea()/saRes.ChipArea(),
		saRes.HPWL(), saTime.Round(time.Millisecond))
	fmt.Printf("%-28s %10.0f %7.1f%% %10.0f %10v\n",
		"sequence-pair SA (1995)", spRes.ChipArea(), 100*d.TotalArea()/spRes.ChipArea(),
		spRes.HPWL(), spTime.Round(time.Millisecond))

	fmt.Println("\nNote: the analytical method works with a fixed chip width and")
	fmt.Println("guarantees per-step optimality; the SA baseline explores only")
	fmt.Println("slicing structures but is free to choose any outline.")
}
