// Package core is the public façade of the robust query processing
// library: it wires the ESS contour source to the discovery policies —
// the paper's PlanBouquet (baseline), SpillBound and AlignedBound, and
// the bake-off comparison heuristics — and to the MSO evaluation
// harness.
//
// The API splits compile time from run time: Compile (or CompileSource)
// produces an immutable *Compiled artifact (contour source, anorexic
// reduction, alignment planner) that any number of concurrent *Run
// values share, each Run holding only per-discovery mutable state.
// Every policy is named, run and bounded through one strategy registry:
// Run.DiscoverStrategy[With] drives a policy by its registry name and
// Compiled.StrategyGuarantee returns its a-priori MSO bound, if any.
//
// Typical use:
//
//	spec, _ := workload.ByName("4D_Q91")
//	space, _ := spec.Space(1.0, 0)
//	compiled, _ := core.Compile(space, core.CompileOptions{})
//	out, _ := compiled.NewRun().DiscoverStrategy(core.SpillBound, qa)
//	fmt.Println(out.SubOpt(space.PointCost[qa]))
package core

import "repro/internal/core/discovery"

// Outcome is the result of one discovery run (see discovery.Outcome for
// the trace, cost ledger, and degradation record).
type Outcome = discovery.Outcome

// Registry names of the paper's three algorithms.
const (
	// PlanBouquet is the baseline of Dutt & Haritsa with anorexic
	// reduction at λ = 0.2 and MSO ≤ 4(1+λ)ρ_red.
	PlanBouquet = "planbouquet"
	// SpillBound is the paper's main algorithm, MSO ≤ D²+3D.
	SpillBound = "spillbound"
	// AlignedBound exploits contour alignment, MSO ∈ [2D+2, D²+3D].
	AlignedBound = "alignedbound"
)

// DefaultLambda is the anorexic-reduction threshold used throughout the
// paper's experiments.
const DefaultLambda = 0.2
