// Package system holds randomized cross-package invariant tests: random
// SPJ queries are pushed through the optimizer, the ESS machinery, the
// three discovery algorithms, and the executor, checking the paper's
// guarantees end to end on inputs nobody hand-picked.
package system

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/core/discovery"
	"repro/internal/core/spillbound"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/ess"
	"repro/internal/exec"
	"repro/internal/mso"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// buildRandomSpace makes a small ESS for a random query.
func buildRandomSpace(t *testing.T, seed uint64, nRels, d, res int) *ess.Space {
	t.Helper()
	cat, err := catalog.TPCDS(0.2)
	if err != nil {
		t.Fatal(err)
	}
	q, err := testutil.RandomQuery(seed, cat, nRels, d)
	if err != nil {
		t.Fatal(err)
	}
	env := optimizer.BuildEnv(q, stats.FromCatalog(cat))
	s, err := ess.Build(q, env, cost.NewModel(cost.DefaultParams()), ess.Config{Res: res})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return s
}

// Every random 2-epp query must respect the SpillBound bound of 10 at
// every grid location.
func TestRandomQueriesSpillBoundWithinBound(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		s := buildRandomSpace(t, seed, 3+int(seed%3), 2, 6)
		bound := spillbound.Guarantee(2)
		for qa := 0; qa < s.Grid.NumPoints(); qa++ {
			out, err := spillbound.Run(s, discovery.NewSimEngine(s, int32(qa)))
			if err != nil {
				t.Fatalf("seed %d qa %d (%s): %v", seed, qa, s.Q, err)
			}
			if so := out.SubOpt(s.PointCost[qa]); so > bound+1e-9 {
				t.Fatalf("seed %d qa %d: sub-opt %v > bound %v (%s)", seed, qa, so, bound, s.Q)
			}
		}
	}
}

// All three algorithms must complete on random 3-epp queries, with PB
// and AB inside their own guarantees.
func TestRandomQueriesAllAlgorithmsComplete(t *testing.T) {
	for seed := uint64(20); seed <= 26; seed++ {
		s := buildRandomSpace(t, seed, 4+int(seed%2), 3, 5)
		c := compile(t, s)
		for _, alg := range []string{core.PlanBouquet, core.SpillBound, core.AlignedBound} {
			res, err := c.MSO(alg, mso.Options{Stride: 2})
			if err != nil {
				t.Fatalf("seed %d %s: %v (%s)", seed, alg, err, s.Q)
			}
			g, _ := c.StrategyGuarantee(alg)
			limit := g
			if alg == core.AlignedBound {
				// AB's bound holds modulo the bounded induced-alignment
				// penalty (§5.3 / [14]); allow that slack.
				limit = g * math.Max(1, res.MaxAlignPenalty)
			}
			if res.MSO > limit+1e-9 {
				t.Fatalf("seed %d %s: MSOe %v > limit %v (%s)", seed, alg, res.MSO, limit, s.Q)
			}
		}
	}
}

// The DP optimizer must never be beaten by exhaustive enumeration on
// random small queries.
func TestRandomQueriesOptimalityVsBruteForce(t *testing.T) {
	cat, err := catalog.TPCDS(0.2)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.NewModel(cost.DefaultParams())
	for seed := uint64(40); seed <= 60; seed++ {
		q, err := testutil.RandomQuery(seed, cat, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		env := optimizer.BuildEnv(q, stats.FromCatalog(cat))
		o := optimizer.New(q, model)
		best := o.Best(env)
		if best == nil {
			t.Fatalf("seed %d: no plan", seed)
		}
		if err := best.Root.Validate(); err != nil {
			t.Fatalf("seed %d: invalid plan: %v", seed, err)
		}
		brute := bruteForceBest(q, env, model)
		if best.Cost > brute+1e-6*brute {
			t.Fatalf("seed %d: DP %v worse than brute force %v (%s)", seed, best.Cost, brute, s(q))
		}
	}
}

func s(q interface{ String() string }) string { return q.String() }

// bruteForceBest enumerates every bushy plan of a ≤3-relation query.
func bruteForceBest(q *query.Query, env *cost.Env, model *cost.Model) float64 {
	best := math.Inf(1)
	n := len(q.Relations)
	joinable := func(a, b uint32) []int {
		var ids []int
		for _, j := range q.Joins {
			am, bm := uint32(1)<<uint(j.LeftRel), uint32(1)<<uint(j.RightRel)
			if (am&a != 0 && bm&b != 0) || (am&b != 0 && bm&a != 0) {
				ids = append(ids, j.ID)
			}
		}
		return ids
	}
	var rec func(parts []uint32, nodes []*plan.Node)
	rec = func(parts []uint32, nodes []*plan.Node) {
		if len(parts) == 1 {
			if c := model.Cost(nodes[0], env).Cost; c < best {
				best = c
			}
			return
		}
		for i := 0; i < len(parts); i++ {
			for j := 0; j < len(parts); j++ {
				if i == j {
					continue
				}
				ids := joinable(parts[i], parts[j])
				if len(ids) == 0 {
					continue
				}
				for _, m := range []plan.JoinMethod{plan.HashJoin, plan.MergeJoin, plan.IndexNLJoin, plan.NLJoin} {
					if m == plan.IndexNLJoin && !nodes[j].IsScan() {
						continue
					}
					var np []uint32
					var nn []*plan.Node
					for k := range parts {
						if k != i && k != j {
							np = append(np, parts[k])
							nn = append(nn, nodes[k])
						}
					}
					rec(append(np, parts[i]|parts[j]),
						append(nn, plan.NewJoin(m, ids, nodes[i], nodes[j])))
				}
			}
		}
	}
	var parts []uint32
	var nodes []*plan.Node
	for r := 0; r < n; r++ {
		parts = append(parts, 1<<uint(r))
		scan := plan.NewScan(r, plan.SeqScan)
		if len(q.Relations[r].Filters) > 0 {
			idx := plan.NewScan(r, plan.IndexScan)
			if model.Cost(idx, env).Cost < model.Cost(scan, env).Cost {
				scan = idx
			}
		}
		nodes = append(nodes, scan)
	}
	rec(parts, nodes)
	return best
}

// The executor must produce identical result cardinalities for the
// optimizer's plan and a reference nested-loops plan on random queries
// with real data.
func TestRandomQueriesExecutorAgreement(t *testing.T) {
	cat, err := catalog.TPCDS(0.05)
	if err != nil {
		t.Fatal(err)
	}
	store, err := datagen.Populate(cat, datagen.Options{Seed: 999, BuildIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stats.FromData(cat, store, 8)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.NewModel(cost.DefaultParams())
	tried := 0
	for seed := uint64(70); seed <= 90 && tried < 8; seed++ {
		q, err := testutil.RandomQuery(seed, cat, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Skip queries whose estimated output explodes (random attr
		// joins can be cross-product-like).
		env := optimizer.BuildEnv(q, st)
		o := optimizer.New(q, model)
		best := o.Best(env)
		if best.Rows > 2e5 {
			continue
		}
		tried++
		e := exec.New(q, store, cost.DefaultParams())
		got, err := e.Run(best.Root, 0)
		if err != nil {
			t.Fatalf("seed %d: %v (%s)", seed, err, best.Root.Signature())
		}
		ref := referenceNL(q)
		want, err := e.Run(ref, 0)
		if err != nil {
			t.Fatalf("seed %d ref: %v", seed, err)
		}
		if got.Rows != want.Rows {
			t.Fatalf("seed %d: optimized plan %d rows, reference %d rows (%s)",
				seed, got.Rows, want.Rows, best.Root.Signature())
		}
	}
	if tried < 3 {
		t.Fatalf("only %d random queries were executable; generator too restrictive", tried)
	}
}

// referenceNL builds the left-deep all-NLJoin plan in relation order.
func referenceNL(q *query.Query) *plan.Node {
	root := plan.NewScan(0, plan.SeqScan)
	joined := uint32(1)
	used := map[int]bool{}
	for len(used) < len(q.Joins) {
		progressed := false
		for _, j := range q.Joins {
			if used[j.ID] {
				continue
			}
			lm, rm := uint32(1)<<uint(j.LeftRel), uint32(1)<<uint(j.RightRel)
			var next int
			switch {
			case joined&lm != 0 && joined&rm == 0:
				next = j.RightRel
			case joined&rm != 0 && joined&lm == 0:
				next = j.LeftRel
			case joined&lm != 0 && joined&rm != 0:
				used[j.ID] = true
				continue
			default:
				continue
			}
			root = plan.NewJoin(plan.NLJoin, []int{j.ID}, root, plan.NewScan(next, plan.SeqScan))
			joined |= 1 << uint(next)
			used[j.ID] = true
			progressed = true
		}
		if !progressed {
			panic("reference plan construction stuck")
		}
	}
	return root
}
