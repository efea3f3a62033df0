// Quickstart: build the ESS for the paper's example query EQ, run
// SpillBound for a query instance whose true join selectivities are
// unknown to the optimizer, and show the discovery trace and its
// bounded sub-optimality.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/workload"
)

func main() {
	// 1. Pick a workload query: EQ joins store_sales ⋈ item ⋈ customer
	//    with two error-prone join predicates (D = 2).
	spec := workload.EQ()
	fmt.Printf("query %s (D=%d)\n%s\n\n", spec.Name, spec.D, spec.SQL)

	// 2. Build the search space: the optimizer is invoked at every grid
	//    location of the 2-D selectivity space to get <q, Pq, Cost(Pq,q)>.
	space, err := spec.Space(1.0, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ESS: %d locations, %d POSP plans, %d iso-cost contours, cost range [%.3g, %.3g]\n\n",
		space.Grid.NumPoints(), space.NumPlans(), len(space.Contours), space.Cmin, space.Cmax)

	// 3. Pretend the query's true selectivities are (0.02, 0.3) — far
	//    from what any estimator would guess.
	qa := int32(space.Grid.Linear([]int{
		space.Grid.NearestIndex(0.02),
		space.Grid.NearestIndex(0.3),
	}))

	// 4. Compile once, run many: Compile freezes the anorexic reduction
	//    and alignment planner into an immutable artifact; every
	//    discovery then gets its own cheap Run, so any number can share
	//    the artifact concurrently.
	compiled, err := core.Compile(space, core.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// 5. Run SpillBound: selectivities are discovered, not estimated.
	out, err := compiled.NewRun().DiscoverStrategy(core.SpillBound, qa)
	if err != nil {
		log.Fatal(err)
	}
	for i, st := range out.Steps {
		mode := "full"
		if st.Phase == discovery.PhaseSpill {
			mode = fmt.Sprintf("spill(dim %d)", st.Dim)
		}
		fmt.Printf("step %d: contour IC%d, plan P%d, %s, budget %.4g → cost %.4g, completed=%v\n",
			i+1, st.Contour, st.PlanID, mode, st.Budget, st.Cost, st.Completed)
	}

	// 6. The whole point: bounded sub-optimality, known upfront from D.
	opt := space.PointCost[qa]
	g, _ := compiled.StrategyGuarantee(core.SpillBound)
	fmt.Printf("\ntotal cost %.4g vs optimal %.4g → sub-optimality %.2f (guarantee D²+3D = %.0f)\n",
		out.TotalCost, opt, out.SubOpt(opt), g)
}
