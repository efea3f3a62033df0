package exec

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/storage"
)

// The differential suite pins the tentpole guarantee of the vectorized
// engine: batch-at-a-time execution is observably identical to the
// tuple-at-a-time reference — bit-for-bit on Cost, WastedCost, Drift,
// Completed, Retries, Degraded, and JoinSel — across budget kills,
// retries, and chaos schedules. Result.Rows is additionally identical
// whenever the run completed, faults were armed (lockstep mode), or the
// batch capacity is 1; an unarmed budget kill at capacity > 1 may stop
// at a different row count, which no consumer observes (discovery reads
// only Cost/Completed/JoinSel).

// diffCase is one (query, plan) pair the matrices run, over the
// fixture's store unless the case brings its own data.
type diffCase struct {
	name string
	q    *query.Query
	p    *plan.Node
	data *storage.Store
}

func (c diffCase) store(f *fixture) *storage.Store {
	if c.data != nil {
		return c.data
	}
	return f.store
}

func diffCases(t *testing.T, f *fixture) []diffCase {
	t.Helper()
	var cases []diffCase
	qJoin := f.parse(t, joinSQL)
	for name, p := range twoRelPlans(qJoin) {
		cases = append(cases, diffCase{name: "2rel/" + name, q: qJoin, p: p})
	}
	qFilt := f.parse(t, `SELECT * FROM fact f, dim d
		WHERE f.f_dim = d.d_id AND f.f_val <= 40 AND d.d_attr <= 2`)
	for name, p := range twoRelPlans(qFilt) {
		cases = append(cases, diffCase{name: "2rel-filtered/" + name, q: qFilt, p: p})
	}
	qScan := f.parse(t, `SELECT * FROM fact ff WHERE ff.f_val <= 50`)
	cases = append(cases,
		diffCase{name: "seqscan", q: qScan, p: plan.NewScan(0, plan.SeqScan)},
		diffCase{name: "indexscan", q: qScan, p: plan.NewScan(0, plan.IndexScan)},
	)
	qIn := f.parse(t, `SELECT * FROM dim d WHERE d.d_attr IN (1, 3)`)
	cases = append(cases, diffCase{name: "in-filter", q: qIn, p: plan.NewScan(0, plan.SeqScan)})
	q3 := f.parse(t, `SELECT * FROM fact ff, dim d, dim2 e
		WHERE ff.f_dim = d.d_id AND ff.f_dim2 = e.e_id`)
	inner := plan.NewJoin(plan.HashJoin, []int{0},
		plan.NewScan(q3.RelIndex("ff"), plan.SeqScan),
		plan.NewScan(q3.RelIndex("d"), plan.SeqScan))
	cases = append(cases,
		diffCase{name: "3rel/hash-hash", q: q3, p: plan.NewJoin(plan.HashJoin, []int{1}, inner,
			plan.NewScan(q3.RelIndex("e"), plan.SeqScan))},
		diffCase{name: "3rel/hash-inl", q: q3, p: plan.NewJoin(plan.IndexNLJoin, []int{1}, inner,
			plan.NewScan(q3.RelIndex("e"), plan.SeqScan))},
		diffCase{name: "3rel/hash-merge", q: q3, p: plan.NewJoin(plan.MergeJoin, []int{1}, inner,
			plan.NewScan(q3.RelIndex("e"), plan.SeqScan))},
	)
	// Double predicate between the same pair (first = physical key,
	// second = residual), mirroring TestJoinWithResidualPredicate.
	qRes := &query.Query{
		Name: "resid",
		Cat:  f.cat,
		Relations: []query.Relation{
			{Table: "fact", Alias: "ff"},
			{Table: "dim", Alias: "d"},
		},
		Joins: []query.Join{
			{ID: 0, LeftRel: 0, RightRel: 1, LeftCol: "f_dim", RightCol: "d_id"},
			{ID: 1, LeftRel: 0, RightRel: 1, LeftCol: "f_val", RightCol: "d_attr"},
		},
	}
	for name, mk := range map[string]plan.JoinMethod{
		"hash": plan.HashJoin, "merge": plan.MergeJoin, "nl": plan.NLJoin, "inl": plan.IndexNLJoin,
	} {
		cases = append(cases, diffCase{name: "residual/" + name, q: qRes,
			p: plan.NewJoin(mk, []int{0, 1},
				plan.NewScan(0, plan.SeqScan),
				plan.NewScan(1, plan.SeqScan))})
	}
	return append(cases, projectionCases(t, f)...)
}

// projectionCases are multi-join plans whose intermediate joins carry
// only the columns their ancestors read: build sides and residual keys
// that arrive through an intermediate join, every join method as an
// intermediate input, and an index-NL inner whose projected column
// holds a NULL (no null-free vector, so the join reads rows).
func projectionCases(t *testing.T, f *fixture) []diffCase {
	t.Helper()
	scan := func(q *query.Query, alias string) *plan.Node {
		return plan.NewScan(q.RelIndex(alias), plan.SeqScan)
	}
	join := plan.NewJoin
	q3 := f.parse(t, `SELECT * FROM fact ff, dim d, dim2 e
		WHERE ff.f_dim = d.d_id AND ff.f_dim2 = e.e_id`)
	fd := func(m plan.JoinMethod) *plan.Node { return join(m, []int{0}, scan(q3, "ff"), scan(q3, "d")) }
	cases := []diffCase{
		{name: "rightdeep/hash-hash", q: q3, p: join(plan.HashJoin, []int{1}, scan(q3, "e"), fd(plan.HashJoin))},
		{name: "rightdeep/hash-nl", q: q3, p: join(plan.HashJoin, []int{1}, scan(q3, "e"), fd(plan.NLJoin))},
		{name: "intermediate/nl-hash", q: q3, p: join(plan.HashJoin, []int{1}, fd(plan.NLJoin), scan(q3, "e"))},
		{name: "intermediate/merge-inl", q: q3, p: join(plan.IndexNLJoin, []int{1}, fd(plan.MergeJoin), scan(q3, "e"))},
		{name: "intermediate/inl-nl", q: q3, p: join(plan.NLJoin, []int{1}, fd(plan.IndexNLJoin), scan(q3, "e"))},
	}

	// A residual between d and e: d.d_attr reaches the top join only
	// through the intermediate ff ⋈ d.
	qRes := &query.Query{
		Name: "resid3",
		Cat:  f.cat,
		Relations: []query.Relation{
			{Table: "fact", Alias: "ff"},
			{Table: "dim", Alias: "d"},
			{Table: "dim2", Alias: "e"},
		},
		Joins: []query.Join{
			{ID: 0, LeftRel: 0, RightRel: 1, LeftCol: "f_dim", RightCol: "d_id"},
			{ID: 1, LeftRel: 0, RightRel: 2, LeftCol: "f_dim2", RightCol: "e_id"},
			{ID: 2, LeftRel: 1, RightRel: 2, LeftCol: "d_attr", RightCol: "e_attr"},
		},
	}
	for _, m := range []plan.JoinMethod{plan.HashJoin, plan.MergeJoin, plan.NLJoin, plan.IndexNLJoin} {
		cases = append(cases, diffCase{name: "residual3/" + m.String(), q: qRes,
			p: join(m, []int{1, 2}, join(plan.HashJoin, []int{0}, scan(qRes, "ff"), scan(qRes, "d")), scan(qRes, "e"))})
	}

	q4 := f.parse(t, `SELECT * FROM fact ff, dim d, dim2 e, dim d2
		WHERE ff.f_dim = d.d_id AND ff.f_dim2 = e.e_id AND d.d_attr = d2.d_id`)
	cases = append(cases,
		diffCase{name: "4rel/hash-inl-hash", q: q4, p: join(plan.HashJoin, []int{2},
			join(plan.IndexNLJoin, []int{1}, join(plan.HashJoin, []int{0}, scan(q4, "ff"), scan(q4, "d")), scan(q4, "e")),
			scan(q4, "d2"))},
		diffCase{name: "4rel/inl-hash-merge", q: q4, p: join(plan.MergeJoin, []int{2},
			join(plan.HashJoin, []int{1}, join(plan.IndexNLJoin, []int{0}, scan(q4, "ff"), scan(q4, "d")), scan(q4, "e")),
			scan(q4, "d2"))},
	)

	// e.e_attr holds a NULL: the intermediate index-NL join projects it
	// (the parent's key), the hash join's payload carries it, and the
	// 2-relation index-NL join reads it as a residual key.
	nulls := f.nullStore(t)
	qn := f.parse(t, `SELECT * FROM fact ff, dim2 e, dim d
		WHERE ff.f_dim2 = e.e_id AND e.e_attr = d.d_id`)
	qnRes := &query.Query{
		Name: "null-resid",
		Cat:  f.cat,
		Relations: []query.Relation{
			{Table: "fact", Alias: "ff"},
			{Table: "dim2", Alias: "e"},
		},
		Joins: []query.Join{
			{ID: 0, LeftRel: 0, RightRel: 1, LeftCol: "f_dim2", RightCol: "e_id"},
			{ID: 1, LeftRel: 0, RightRel: 1, LeftCol: "f_val", RightCol: "e_attr"},
		},
	}
	return append(cases,
		diffCase{name: "null/inl-hash", q: qn, data: nulls, p: join(plan.HashJoin, []int{1},
			join(plan.IndexNLJoin, []int{0}, scan(qn, "ff"), scan(qn, "e")), scan(qn, "d"))},
		diffCase{name: "null/hash-hash", q: qn, data: nulls, p: join(plan.HashJoin, []int{1},
			join(plan.HashJoin, []int{0}, scan(qn, "ff"), scan(qn, "e")), scan(qn, "d"))},
		diffCase{name: "null/inl-residual", q: qnRes, data: nulls,
			p: join(plan.IndexNLJoin, []int{0, 1}, scan(qnRes, "ff"), scan(qnRes, "e"))},
	)
}

// nullStore returns the fixture's store with dim2.e_attr set to NULL on
// one row (its column vector then has a NULL, so no reader may take it
// as a null-free int vector).
func (f *fixture) nullStore(t *testing.T) *storage.Store {
	t.Helper()
	src := f.store.MustRelation("dim2")
	rel := storage.NewRelation(src.Name, src.Cols)
	attr := rel.ColumnIndex("e_attr")
	for i, row := range src.Rows {
		row = append(expr.Row(nil), row...)
		if i == 0 { // e_id 1, the most frequent FKZipf key
			row[attr] = expr.Null
		}
		rel.Append(row)
	}
	rel.BuildColumns()
	rel.BuildHashIndex(0)
	if c := rel.Col(attr); c == nil || !c.HasNulls() {
		t.Fatal("nullStore: e_attr vector should record the NULL")
	}
	s := storage.NewStore()
	for _, name := range f.store.Names() {
		if name != rel.Name {
			s.Add(f.store.Relation(name))
		}
	}
	s.Add(rel)
	return s
}

// TestJoinOutputProjection pins projection pushdown: each join's output
// arena is exactly as wide as the number of its columns that ancestor
// joins' predicates reference (keys and residuals), and the root, which
// nothing reads, is count-only. It also pins when index-NL joins read
// their inner columnar: always in batched mode over this NULL-free
// fixture, never when a projected inner column holds a NULL, and never
// in lockstep.
func TestJoinOutputProjection(t *testing.T) {
	f := newFixture(t)
	for _, c := range diffCases(t, f) {
		if c.p.IsScan() {
			continue
		}
		for _, lockstep := range []bool{false, true} {
			e := New(c.q, c.store(f), cost.DefaultParams())
			if lockstep {
				e.WithFaults(faultinject.New(faultinject.Config{Seed: 1}))
			}
			op, _, err := e.buildVec(c.p, nil, &Meter{}, &Result{}, DefaultBatchSize)
			if err != nil {
				t.Fatalf("%s: build: %v", c.name, err)
			}
			wantColumnar := !lockstep && !strings.HasPrefix(c.name, "null/")
			checkProjection(t, c, c.p, op, nil, wantColumnar)
			if !lockstep {
				markDiscardRoot(op)
				if out, _, _ := joinParts(op); !out.discard {
					t.Fatalf("%s: root join is not count-only", c.name)
				}
			}
		}
	}
}

// colRef is one (relation, column) a join predicate reads.
type colRef struct {
	rel int
	col string
}

// checkProjection checks the join at n against above, the columns the
// predicates of n's ancestors read.
func checkProjection(t *testing.T, c diffCase, n *plan.Node, op batchOperator, above map[colRef]bool, wantColumnar bool) {
	t.Helper()
	if n.IsScan() {
		return
	}
	want := 0
	for ref := range above {
		if n.Rels&(1<<ref.rel) != 0 {
			want++
		}
	}
	out, left, right := joinParts(op)
	if got := len(out.lproj) + len(out.rproj); got != want {
		t.Fatalf("%s: join %v arena width %d, want %d (ancestors read %v)", c.name, n.Join.JoinIDs, got, want, above)
	}
	if inl, ok := op.(*vecIndexNLJoin); ok && inl.columnar != wantColumnar {
		t.Fatalf("%s: index-NL join %v columnar = %v, want %v", c.name, n.Join.JoinIDs, inl.columnar, wantColumnar)
	}
	next := map[colRef]bool{}
	for ref := range above {
		next[ref] = true
	}
	for _, id := range n.Join.JoinIDs {
		j := c.q.Joins[id]
		next[colRef{j.LeftRel, j.LeftCol}] = true
		next[colRef{j.RightRel, j.RightCol}] = true
	}
	checkProjection(t, c, n.Left, left, next, wantColumnar)
	if right != nil {
		checkProjection(t, c, n.Right, right, next, wantColumnar)
	}
}

// joinParts returns a join operator's output arena and children (right
// is nil for index-NL joins, whose inner is not an operator).
func joinParts(op batchOperator) (*outBuf, batchOperator, batchOperator) {
	switch o := op.(type) {
	case *vecHashJoin:
		return o.out, o.left, o.right
	case *vecMergeJoin:
		return o.out, o.left, o.right
	case *vecNLJoin:
		return o.out, o.left, o.right
	case *vecIndexNLJoin:
		return o.out, o.left, nil
	}
	panic(fmt.Sprintf("joinParts: %T is not a join", op))
}

// runEngines executes the case on both engines with independent (but
// identically configured) injectors and compares.
type engineRun struct {
	res *Result
	err error
	log []faultinject.Fault
}

func runEngine(f *fixture, c diffCase, vectorized bool, batch int, budget float64,
	mkFaults func() *faultinject.Injector, spillJoin int) engineRun {
	e := New(c.q, c.store(f), cost.DefaultParams()).Vectorized(vectorized)
	if batch > 0 {
		e.WithBatchSize(batch)
	}
	var in *faultinject.Injector
	if mkFaults != nil {
		in = mkFaults()
		e.WithFaults(in)
	}
	var res *Result
	var err error
	if spillJoin >= 0 {
		res, err = e.RunSpill(c.p, spillJoin, budget)
	} else {
		res, err = e.Run(c.p, budget)
	}
	return engineRun{res: res, err: err, log: in.Fired()}
}

// compareRuns asserts the differential contract between a tuple-engine
// run and a vectorized run. compareRows additionally pins Result.Rows.
func compareRuns(t *testing.T, tag string, tup, vec engineRun, compareRows bool) {
	t.Helper()
	if (tup.err == nil) != (vec.err == nil) {
		t.Fatalf("%s: error mismatch: tuple=%v vector=%v", tag, tup.err, vec.err)
	}
	if tup.err != nil && tup.err.Error() != vec.err.Error() {
		t.Fatalf("%s: error text mismatch:\n tuple:  %v\n vector: %v", tag, tup.err, vec.err)
	}
	tr, vr := tup.res, vec.res
	if tr == nil || vr == nil {
		if tr != vr {
			t.Fatalf("%s: result presence mismatch: tuple=%v vector=%v", tag, tr, vr)
		}
		return
	}
	if tr.Cost != vr.Cost {
		t.Fatalf("%s: Cost mismatch: tuple=%.17g vector=%.17g (Δ=%g)",
			tag, tr.Cost, vr.Cost, math.Abs(tr.Cost-vr.Cost))
	}
	if tr.WastedCost != vr.WastedCost {
		t.Fatalf("%s: WastedCost mismatch: tuple=%.17g vector=%.17g", tag, tr.WastedCost, vr.WastedCost)
	}
	if tr.Drift != vr.Drift {
		t.Fatalf("%s: Drift mismatch: tuple=%.17g vector=%.17g", tag, tr.Drift, vr.Drift)
	}
	if tr.Completed != vr.Completed {
		t.Fatalf("%s: Completed mismatch: tuple=%v vector=%v", tag, tr.Completed, vr.Completed)
	}
	if tr.Retries != vr.Retries {
		t.Fatalf("%s: Retries mismatch: tuple=%d vector=%d", tag, tr.Retries, vr.Retries)
	}
	if !reflect.DeepEqual(tr.Degraded, vr.Degraded) {
		t.Fatalf("%s: Degraded mismatch:\n tuple:  %v\n vector: %v", tag, tr.Degraded, vr.Degraded)
	}
	if !reflect.DeepEqual(tr.JoinSel, vr.JoinSel) {
		t.Fatalf("%s: JoinSel mismatch:\n tuple:  %v\n vector: %v", tag, tr.JoinSel, vr.JoinSel)
	}
	if compareRows && tr.Rows != vr.Rows {
		t.Fatalf("%s: Rows mismatch: tuple=%d vector=%d", tag, tr.Rows, vr.Rows)
	}
	if !reflect.DeepEqual(tup.log, vec.log) {
		t.Fatalf("%s: fault schedule mismatch:\n tuple:  %v\n vector: %v", tag, tup.log, vec.log)
	}
}

// TestDifferentialBudgetSweep pins cost metering across the full budget
// ladder for every plan shape: the kill that clamps Used to Budget must
// land on the same billed total in both engines at every fraction.
func TestDifferentialBudgetSweep(t *testing.T) {
	f := newFixture(t)
	fracs := []float64{0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.99, 1.5}
	for _, c := range diffCases(t, f) {
		full := runEngine(f, c, false, 0, 0, nil, -1)
		if full.err != nil {
			t.Fatalf("%s: unbudgeted tuple run failed: %v", c.name, full.err)
		}
		for _, frac := range fracs {
			budget := frac * full.res.Cost
			tag := fmt.Sprintf("%s/budget=%.2f", c.name, frac)
			tup := runEngine(f, c, false, 0, budget, nil, -1)
			vec := runEngine(f, c, true, 0, budget, nil, -1)
			// Rows is pinned only when the run completes (unarmed kill at
			// capacity > 1 may stop on a different row).
			compareRuns(t, tag, tup, vec, tup.res != nil && tup.res.Completed)
		}
	}
}

// TestDifferentialBatchSizes sweeps batch capacities; at capacity 1 the
// engines must agree on everything including Rows at every kill point.
func TestDifferentialBatchSizes(t *testing.T) {
	f := newFixture(t)
	for _, c := range diffCases(t, f) {
		full := runEngine(f, c, false, 0, 0, nil, -1)
		if full.err != nil {
			t.Fatalf("%s: unbudgeted tuple run failed: %v", c.name, full.err)
		}
		for _, batch := range []int{1, 3, 7, 64, 1000} {
			for _, frac := range []float64{0, 0.3, 0.8} {
				budget := frac * full.res.Cost
				tag := fmt.Sprintf("%s/batch=%d/budget=%.1f", c.name, batch, frac)
				tup := runEngine(f, c, false, 0, budget, nil, -1)
				vec := runEngine(f, c, true, batch, budget, nil, -1)
				compareRows := batch == 1 || (tup.res != nil && tup.res.Completed)
				compareRuns(t, tag, tup, vec, compareRows)
			}
		}
	}
}

// TestDifferentialSpill pins spill-mode runs: subtree extraction,
// observed spill selectivities, and budget kills inside the subtree.
func TestDifferentialSpill(t *testing.T) {
	f := newFixture(t)
	q3 := f.parse(t, `SELECT * FROM fact ff, dim d, dim2 e
		WHERE ff.f_dim = d.d_id AND ff.f_dim2 = e.e_id`)
	inner := plan.NewJoin(plan.HashJoin, []int{0},
		plan.NewScan(q3.RelIndex("ff"), plan.SeqScan),
		plan.NewScan(q3.RelIndex("d"), plan.SeqScan))
	root := plan.NewJoin(plan.MergeJoin, []int{1}, inner,
		plan.NewScan(q3.RelIndex("e"), plan.SeqScan))
	cases := append([]diffCase{{name: "3rel-spill", q: q3, p: root}}, projectionCases(t, f)...)
	for _, c := range cases {
		for _, joinID := range spillJoins(c.p) {
			full := runEngine(f, c, false, 0, 0, nil, joinID)
			if full.err != nil {
				t.Fatalf("%s join %d: unbudgeted spill failed: %v", c.name, joinID, full.err)
			}
			if len(full.res.JoinSel) == 0 {
				t.Fatalf("%s join %d: spill run observed no selectivity", c.name, joinID)
			}
			for _, frac := range []float64{0, 0.1, 0.5, 0.9} {
				budget := frac * full.res.Cost
				tag := fmt.Sprintf("%s spill join=%d budget=%.1f", c.name, joinID, frac)
				tup := runEngine(f, c, false, 0, budget, nil, joinID)
				vec := runEngine(f, c, true, 0, budget, nil, joinID)
				compareRuns(t, tag, tup, vec, tup.res != nil && tup.res.Completed)
			}
		}
	}
}

// spillJoins returns one join ID per join node of the plan: spilling
// on it runs that node's subtree.
func spillJoins(p *plan.Node) []int {
	var ids []int
	p.Walk(func(n *plan.Node) {
		if !n.IsScan() {
			ids = append(ids, n.Join.JoinIDs[0])
		}
	})
	return ids
}

// TestDifferentialChaos replays seed-driven fault schedules through
// both engines. With faults armed the vectorized engine runs in
// lockstep, so everything — fault sequence numbers, kill tuples, retry
// ladders, degradations, drift, and Rows — must replay bit for bit.
func TestDifferentialChaos(t *testing.T) {
	f := newFixture(t)
	execRates := map[faultinject.Site]float64{
		faultinject.SiteScanTuple:     0.05,
		faultinject.SiteIndexProbe:    0.10,
		faultinject.SiteOperatorPanic: 0.02,
		faultinject.SiteSpillObs:      0.20,
		faultinject.SiteLatency:       0.10,
	}
	cases := diffCases(t, f)
	for seed := uint64(1); seed <= 12; seed++ {
		for _, pf := range []float64{0, 0.5, 1} {
			for _, mps := range []uint64{0, 1} {
				mk := func() *faultinject.Injector {
					return faultinject.New(faultinject.Config{
						Seed: seed, Rates: execRates, PersistentFrac: pf, MaxPerSite: mps,
					})
				}
				for _, c := range cases {
					for _, budgetFrac := range []float64{0, 0.5} {
						budget := 0.0
						if budgetFrac > 0 {
							base := runEngine(f, c, false, 0, 0, nil, -1)
							if base.err != nil {
								t.Fatalf("%s: clean run failed: %v", c.name, base.err)
							}
							budget = budgetFrac * base.res.Cost
						}
						tag := fmt.Sprintf("%s/seed=%d pf=%.1f mps=%d budget=%.1f",
							c.name, seed, pf, mps, budgetFrac)
						tup := runEngine(f, c, false, 0, budget, mk, -1)
						vec := runEngine(f, c, true, 0, budget, mk, -1)
						compareRuns(t, tag, tup, vec, true)
					}
				}
			}
		}
	}
}

// TestReusedExecutorReplaysChaos pins that an executor's pooled buffers
// carry no state between runs: after an unarmed run at the default
// batch size, an armed run must replay exactly what a fresh executor
// armed with the same schedule does (lockstep needs capacity-1 arenas,
// whatever the pool holds).
func TestReusedExecutorReplaysChaos(t *testing.T) {
	f := newFixture(t)
	rates := map[faultinject.Site]float64{
		faultinject.SiteScanTuple:     0.05,
		faultinject.SiteOperatorPanic: 0.02,
		faultinject.SiteLatency:       0.10,
	}
	for _, c := range diffCases(t, f) {
		for seed := uint64(1); seed <= 4; seed++ {
			mk := func() *faultinject.Injector {
				return faultinject.New(faultinject.Config{Seed: seed, Rates: rates, PersistentFrac: 0.5})
			}
			tag := fmt.Sprintf("%s/seed=%d", c.name, seed)
			fresh := runEngine(f, c, true, 0, 0, mk, -1)
			e := New(c.q, c.store(f), cost.DefaultParams())
			if _, err := e.Run(c.p, 0); err != nil {
				t.Fatalf("%s: unarmed run: %v", tag, err)
			}
			in := mk()
			res, err := e.WithFaults(in).Run(c.p, 0)
			compareRuns(t, tag, fresh, engineRun{res: res, err: err, log: in.Fired()}, true)
		}
	}
}

// TestDifferentialChaosSpill extends the chaos matrix to spill-mode
// runs, covering the spill-observation drop ladder and retries.
func TestDifferentialChaosSpill(t *testing.T) {
	f := newFixture(t)
	q3 := f.parse(t, `SELECT * FROM fact ff, dim d, dim2 e
		WHERE ff.f_dim = d.d_id AND ff.f_dim2 = e.e_id`)
	inner := plan.NewJoin(plan.HashJoin, []int{0},
		plan.NewScan(q3.RelIndex("ff"), plan.SeqScan),
		plan.NewScan(q3.RelIndex("d"), plan.SeqScan))
	root := plan.NewJoin(plan.HashJoin, []int{1}, inner,
		plan.NewScan(q3.RelIndex("e"), plan.SeqScan))
	c := diffCase{name: "3rel-chaos-spill", q: q3, p: root}
	rates := map[faultinject.Site]float64{
		faultinject.SiteScanTuple: 0.05,
		faultinject.SiteSpillObs:  0.5,
		faultinject.SiteLatency:   0.10,
	}
	for seed := uint64(1); seed <= 15; seed++ {
		for _, pf := range []float64{0, 1} {
			mk := func() *faultinject.Injector {
				return faultinject.New(faultinject.Config{Seed: seed, Rates: rates, PersistentFrac: pf})
			}
			for _, joinID := range []int{0, 1} {
				tag := fmt.Sprintf("seed=%d pf=%.0f join=%d", seed, pf, joinID)
				tup := runEngine(f, c, false, 0, 0, mk, joinID)
				vec := runEngine(f, c, true, 0, 0, mk, joinID)
				compareRuns(t, tag, tup, vec, true)
			}
		}
	}
}

// TestMeterChargeNMatchesUnitCharges pins the class-count meter's
// re-walk rule: billing a batch with one ChargeN leaves exactly the
// same meter state — Used, per-class counts, and kill index — as
// billing the same tuples one at a time, for any interleaving of
// classes and one-shot charges.
func TestMeterChargeNMatchesUnitCharges(t *testing.T) {
	consts := []float64{1.2, 0.4, 0.1, 2.0}
	type step struct {
		cls int
		n   int64
	}
	script := []step{{0, 7}, {1, 130}, {-1, 3}, {2, 1000}, {0, 64}, {3, 5}, {2, 999}, {1, 1}}
	for _, budget := range []float64{0, 50, 137.77, 500, 1e6} {
		chunked := &Meter{Budget: budget}
		unit := &Meter{Budget: budget}
		var chunkedCls, unitCls []int
		for _, c := range consts {
			chunkedCls = append(chunkedCls, chunked.Class(c))
			unitCls = append(unitCls, unit.Class(c))
		}
		var cErr, uErr error
		var cKill, uKill int64
		for _, s := range script {
			if s.cls < 0 {
				cErr = chunked.Charge(float64(s.n) * 0.3)
				uErr = unit.Charge(float64(s.n) * 0.3)
			} else {
				var k int64
				k, cErr = chunked.ChargeN(chunkedCls[s.cls], s.n)
				if cErr != nil {
					cKill = k
				}
				for i := int64(0); i < s.n && uErr == nil; i++ {
					var ku int64
					ku, uErr = unit.ChargeN(unitCls[s.cls], 1)
					if uErr != nil {
						uKill = i + ku
					}
				}
			}
			if (cErr == nil) != (uErr == nil) {
				t.Fatalf("budget=%g: kill disagreement at step %+v: chunked=%v unit=%v", budget, s, cErr, uErr)
			}
			if cErr != nil {
				break
			}
		}
		if chunked.Used != unit.Used {
			t.Fatalf("budget=%g: Used mismatch: chunked=%.17g unit=%.17g", budget, chunked.Used, unit.Used)
		}
		if cErr != nil && cKill != uKill {
			t.Fatalf("budget=%g: kill index mismatch: chunked=%d unit=%d", budget, cKill, uKill)
		}
		for i := range consts {
			if chunked.classes[i].n != unit.classes[i].n {
				t.Fatalf("budget=%g: class %d count mismatch: chunked=%d unit=%d",
					budget, i, chunked.classes[i].n, unit.classes[i].n)
			}
		}
	}
}
