package exec

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/storage"
)

// DefaultBatchSize is the row capacity operators exchange per NextBatch
// call in the vectorized engine.
const DefaultBatchSize = 1024

// rowBatch is a batch of row references with an optional selection
// vector: sel == nil means every row of base is selected, otherwise sel
// lists the selected ordinals into base. Filters narrow batches by
// writing selection vectors — rows are never copied.
//
// stable marks that the referenced rows stay valid after further
// NextBatch calls on the producer (true for scans, whose rows alias the
// immutable storage arrays; false for join outputs, which live in a
// reused arena). Consumers that retain rows across batches (sort, NL
// materialization) must clone unstable rows; the hash build copies the
// payload columns it keeps instead.
type rowBatch struct {
	base   []expr.Row
	sel    []int32
	stable bool

	// rel/off identify columnar scan batches: base aliases
	// rel.Rows[off : off+len(base)], so consumers that need only some
	// columns (join keys, a join's projected outer columns) can read
	// rel's typed vectors at absolute ordinal off+i instead of chasing
	// row pointers.
	rel *storage.Relation
	off int

	// count carries the row count of value-free batches (base == nil),
	// produced by a discarding root arena — the drive loop only counts
	// root output, so the root join never materializes joined rows.
	count int
}

// n returns the number of selected rows.
func (b *rowBatch) n() int {
	if b.sel != nil {
		return len(b.sel)
	}
	if b.base != nil {
		return len(b.base)
	}
	return b.count
}

// row returns the i-th selected row.
func (b *rowBatch) row(i int) expr.Row {
	if b.sel != nil {
		return b.base[b.sel[i]]
	}
	return b.base[i]
}

// ord returns the base ordinal of the i-th selected row.
func (b *rowBatch) ord(i int) int {
	if b.sel != nil {
		return int(b.sel[i])
	}
	return i
}

// cloneRow copies a row out of an unstable batch.
func cloneRow(r expr.Row) expr.Row { return append(expr.Row(nil), r...) }

// outBuf is a join operator's reusable output arena: each output row is
// gathered into one flat value slab, so a batch of joined rows costs no
// per-row allocation. The arena is recycled on every NextBatch call,
// which is why batches built from it are unstable.
//
// Output rows are late-materialized: lproj and rproj list the positions
// of the left and right input rows that operators above the join read
// (their join and residual keys — see buildVecNode), and emit copies
// only those, so an intermediate join carries a few key columns instead
// of every column of every relation below it.
type outBuf struct {
	lproj, rproj []int
	cap          int
	vals         []expr.Value
	rows         []expr.Row
	b            rowBatch

	// discard turns the arena into a pure counter: the plan root's rows
	// are never read (the drive loop only counts them — §3.1 discards
	// Result rows), so the root join skips materializing joined values
	// entirely and emits count-only batches.
	discard bool
	count   int
}

func newOutBuf(width, cap int) *outBuf {
	return &outBuf{
		cap:  cap,
		vals: make([]expr.Value, 0, width*cap),
		rows: make([]expr.Row, 0, cap),
	}
}

func (o *outBuf) reset() {
	o.vals = o.vals[:0]
	o.rows = o.rows[:0]
	o.count = 0
}

// emit appends the projection of l and r as one output row.
func (o *outBuf) emit(l, r expr.Row) {
	if o.discard {
		o.count++
		return
	}
	s := len(o.vals)
	for _, p := range o.lproj {
		o.vals = append(o.vals, l[p])
	}
	for _, p := range o.rproj {
		o.vals = append(o.vals, r[p])
	}
	o.rows = append(o.rows, o.vals[s:len(o.vals):len(o.vals)])
}

// emitCols is emit with the left values read off lcols — the vectors
// of the lproj columns — at ordinal ord instead of from a row.
func (o *outBuf) emitCols(lcols []*storage.Column, ord int, r expr.Row) {
	if o.discard {
		o.count++
		return
	}
	s := len(o.vals)
	for _, c := range lcols {
		o.vals = append(o.vals, expr.Int(c.Ints[ord]))
	}
	for _, p := range o.rproj {
		o.vals = append(o.vals, r[p])
	}
	o.rows = append(o.rows, o.vals[s:len(o.vals):len(o.vals)])
}

// cleanIntCol returns rel's vector for column pos when it is a
// null-free int vector — one whose values rebuild the rows' exactly as
// expr.Int — and nil otherwise.
func cleanIntCol(rel *storage.Relation, pos int) *storage.Column {
	if c := rel.Col(pos); c != nil && c.Kind == expr.KindInt && !c.HasNulls() {
		return c
	}
	return nil
}

// cleanIntCols is cleanIntCol over several columns; false when any has
// no clean vector.
func cleanIntCols(rel *storage.Relation, pos []int) ([]*storage.Column, bool) {
	cols := make([]*storage.Column, len(pos))
	for i, p := range pos {
		if cols[i] = cleanIntCol(rel, p); cols[i] == nil {
			return nil, false
		}
	}
	return cols, true
}

// scanCols returns the vectors of the lproj columns of a join's outer
// input when it is a sequential scan and they are all null-free int
// vectors, nil otherwise.
func scanCols(outer batchOperator, lproj []int) []*storage.Column {
	s, ok := outer.(*vecSeqScan)
	if !ok || len(lproj) == 0 {
		return nil
	}
	cols, _ := cleanIntCols(s.rel, lproj)
	return cols
}

// probeRow is a pipeline join's current outer row and its ordinal in
// the outer scan's relation. cols is set while the outer batch is a
// columnar scan batch: it holds the vectors of the join's projected
// left columns (see scanCols), so emitting reads the contiguous vectors
// and never dereferences the storage row.
type probeRow struct {
	row  expr.Row
	ord  int
	cols []*storage.Column
}

// emit appends the joined row of the current outer row and r.
func (p *probeRow) emit(o *outBuf, r expr.Row) {
	if p.cols != nil {
		o.emitCols(p.cols, p.ord, r)
		return
	}
	o.emit(p.row, r)
}

func (o *outBuf) full() bool { return o.len() >= o.cap }

func (o *outBuf) len() int {
	if o.discard {
		return o.count
	}
	return len(o.rows)
}

// take returns the buffered rows as an (unstable) batch.
func (o *outBuf) take() *rowBatch {
	if o.discard {
		o.b = rowBatch{count: o.count}
	} else {
		o.b = rowBatch{base: o.rows}
	}
	return &o.b
}

// bufPool recycles the vectorized engine's per-run scratch buffers
// across driveVec attempts: selection vectors, join output arenas, and
// index-scan fetch slabs. A plain mutex-guarded freelist beats
// sync.Pool here — buffers are checked out a handful of times per
// query, never concurrently contended on the sequential path, and the
// typed slices avoid interface boxing on every get/put.
type bufPool struct {
	mu     sync.Mutex
	sels   [][]int32
	outs   []*outBuf
	rows   [][]expr.Row
	tables []*graceTable
}

func (p *bufPool) getSel(capacity int) []int32 {
	p.mu.Lock()
	for i := len(p.sels) - 1; i >= 0; i-- {
		if cap(p.sels[i]) >= capacity {
			s := p.sels[i]
			p.sels = append(p.sels[:i], p.sels[i+1:]...)
			p.mu.Unlock()
			return s[:0]
		}
	}
	p.mu.Unlock()
	return make([]int32, 0, capacity)
}

func (p *bufPool) putSel(s []int32) {
	if s == nil {
		return
	}
	p.mu.Lock()
	if len(p.sels) < 64 {
		p.sels = append(p.sels, s[:0])
	}
	p.mu.Unlock()
}

// getOut returns an empty output arena projecting lproj/rproj.
func (p *bufPool) getOut(lproj, rproj []int, capacity int) *outBuf {
	width := len(lproj) + len(rproj)
	p.mu.Lock()
	for i := len(p.outs) - 1; i >= 0; i-- {
		o := p.outs[i]
		if cap(o.vals) >= width*capacity && cap(o.rows) >= capacity {
			p.outs = append(p.outs[:i], p.outs[i+1:]...)
			p.mu.Unlock()
			o.reset()
			// A recycled arena may be larger than asked for; it must still
			// fill at capacity (1 in lockstep) or the batch boundaries, and
			// with them the fault-check steps, would shift.
			o.cap = capacity
			o.lproj, o.rproj = lproj, rproj
			o.discard = false
			return o
		}
	}
	p.mu.Unlock()
	o := newOutBuf(width, capacity)
	o.lproj, o.rproj = lproj, rproj
	return o
}

func (p *bufPool) putOut(o *outBuf) {
	if o == nil {
		return
	}
	o.reset()
	p.mu.Lock()
	if len(p.outs) < 64 {
		p.outs = append(p.outs, o)
	}
	p.mu.Unlock()
}

// getTable returns an empty hash-join build table sized for hint
// entries of width payload values, recycling a pooled one when any is
// free (see graceTable.reset).
func (p *bufPool) getTable(hint, width int) *graceTable {
	p.mu.Lock()
	if n := len(p.tables); n > 0 {
		t := p.tables[n-1]
		p.tables = p.tables[:n-1]
		p.mu.Unlock()
		t.reset(hint, width)
		return t
	}
	p.mu.Unlock()
	t := &graceTable{}
	t.reset(hint, width)
	return t
}

func (p *bufPool) putTable(t *graceTable) {
	if t == nil {
		return
	}
	p.mu.Lock()
	if len(p.tables) < 64 {
		p.tables = append(p.tables, t)
	}
	p.mu.Unlock()
}

func (p *bufPool) getRows(capacity int) []expr.Row {
	p.mu.Lock()
	for i := len(p.rows) - 1; i >= 0; i-- {
		if cap(p.rows[i]) >= capacity {
			r := p.rows[i]
			p.rows = append(p.rows[:i], p.rows[i+1:]...)
			p.mu.Unlock()
			return r[:0]
		}
	}
	p.mu.Unlock()
	return make([]expr.Row, 0, capacity)
}

func (p *bufPool) putRows(r []expr.Row) {
	if r == nil {
		return
	}
	for i := range r {
		r[i] = nil
	}
	p.mu.Lock()
	if len(p.rows) < 64 {
		p.rows = append(p.rows, r[:0])
	}
	p.mu.Unlock()
}

// batchOperator is the vectorized iterator interface: NextBatch returns
// the next non-empty batch, io.EOF at end of stream.
type batchOperator interface {
	Open() error
	NextBatch() (*rowBatch, error)
	Close() error
}

// markDiscardRoot flips the plan root's output arena into count-only
// mode. Result rows of the root are discarded by every consumer (the
// drive loop just counts them), so materializing the joined values is
// pure overhead. Lockstep runs (faults armed) skip this: the tuple
// engine materializes, and lockstep must replay its exact allocation-
// free observables — charge order is unaffected either way, but we keep
// the fault path maximally conservative.
func markDiscardRoot(op batchOperator) {
	switch o := op.(type) {
	case *vecHashJoin:
		o.out.discard = true
	case *vecMergeJoin:
		o.out.discard = true
	case *vecNLJoin:
		o.out.discard = true
	case *vecIndexNLJoin:
		if !o.ls {
			o.out.discard = true
		}
	}
}

// driveVec runs one batch-at-a-time execution attempt. Semantics are
// pinned to driveTuple's: same recovery, same billing, same epilogue.
//
// With a fault injector armed the engine runs in lockstep mode —
// capacity 1 — which reproduces the tuple engine's charge / fault-check
// / emit interleaving exactly, so per-site fault sequence numbers, kill
// points, and retry schedules replay bit for bit. Unarmed runs use the
// configured batch size; every completed-run observable is still
// bit-identical to tuple execution (cost metering is a pure function of
// per-class tuple counts — see Meter), and a budget-killed run differs
// only in Result.Rows, which no discovery consumer reads.
func (e *Executor) driveVec(ctx context.Context, root *plan.Node, budget float64, spill bool) (res *Result, err error) {
	meter := &Meter{Budget: budget}
	res = &Result{JoinSel: make(map[int]float64)}
	defer func() {
		if r := recover(); r != nil {
			res.Cost = meter.Used + meter.Drifted
			res.Drift = meter.Drifted
			res.Completed = false
			err = recoveredError(root.Signature(), r)
		}
	}()
	capacity := e.batchSize
	if e.faults != nil {
		capacity = 1 // lockstep: replay tuple-exact fault sequences
	}
	op, _, err := e.buildVec(root, nil, meter, res, capacity)
	if err != nil {
		res.Cost = meter.Used + meter.Drifted
		res.Drift = meter.Drifted
		return res, opError("build", err)
	}
	if e.faults == nil {
		markDiscardRoot(op)
		// Morsel-driven parallel path: multiple workers share one budget
		// and one result, splitting the driving scan into fixed windows.
		// Armed faults force the sequential lockstep path above (capacity
		// 1), so chaos replay stays bit-for-bit regardless of workers.
		if e.workers > 1 {
			if scan := morselScanOf(op); scan != nil {
				return e.driveMorsels(ctx, op, scan, meter, res, spill)
			}
		}
	}
	steps := 0
	err = func() error {
		if err := op.Open(); err != nil {
			return err
		}
		for {
			if steps&cancelCheckMask == 0 {
				if cerr := ctx.Err(); cerr != nil {
					return opError("cancel", cerr)
				}
				if ferr := e.faults.Check(faultinject.SiteOperatorPanic); ferr != nil {
					panic(ferr)
				}
				if d := e.faults.Drift(faultinject.SiteLatency); d > 0 {
					meter.AddDrift(d * e.params.Tuple)
				}
			} else if capacity > 1 {
				// Off-gate batches are whole windows of rows; keep
				// cancellation latency comparable to the tuple engine's
				// every-64-rows check.
				if cerr := ctx.Err(); cerr != nil {
					return opError("cancel", cerr)
				}
			}
			steps++
			b, err := op.NextBatch()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			res.Rows += int64(b.n())
		}
	}()
	return e.epilogue(res, meter, op, err, op.Close(), spill)
}

// buildVec compiles a plan node into a batch operator tree. It must
// mirror build exactly: same fault-check sites, same degradation notes,
// and — critically — the same meter class registration order, so the
// metered total is the same function of tuple counts in both engines.
//
// need lists the qualified columns ("alias.column") the operators above
// n read — the join and residual keys of every ancestor join — and a
// join's output carries only those of its columns (projection
// pushdown). Nothing reads the root's output (the drive loop only
// counts it), so the root is built with need == nil. Scans keep
// emitting whole storage rows: they alias the immutable row arrays, so
// projecting them would copy where today nothing is copied.
func (e *Executor) buildVec(n *plan.Node, need []string, meter *Meter, res *Result, capacity int) (batchOperator, *schema, error) {
	if n.IsScan() {
		return e.buildScanVec(n, meter, res, capacity)
	}
	return e.buildJoinVec(n, need, meter, res, capacity)
}

// joinColNames returns the qualified columns both sides of the join's
// predicates read.
func (e *Executor) joinColNames(n *plan.Node) []string {
	var names []string
	for _, id := range n.Join.JoinIDs {
		j := e.q.Joins[id]
		names = append(names,
			e.q.Relations[j.LeftRel].Alias+"."+j.LeftCol,
			e.q.Relations[j.RightRel].Alias+"."+j.RightCol)
	}
	return names
}

// project returns the positions of the schema's columns named in need,
// in schema order.
func (s *schema) project(need []string) []int {
	var pos []int
	for i, c := range s.cols {
		for _, nc := range need {
			if c == nc {
				pos = append(pos, i)
				break
			}
		}
	}
	return pos
}

// projectedSchema is the output schema of a join emitting lproj of ls
// then rproj of rs.
func projectedSchema(ls, rs *schema, lproj, rproj []int) *schema {
	out := &schema{cols: make([]string, 0, len(lproj)+len(rproj))}
	for _, p := range lproj {
		out.cols = append(out.cols, ls.cols[p])
	}
	for _, p := range rproj {
		out.cols = append(out.cols, rs.cols[p])
	}
	return out
}

// payloadCols lays out the right-side values a join keeps per inner
// row: the projected output columns first (so an output row's right
// half is the payload's prefix), then any residual-key column not
// already among them. It returns the layout, the output positions
// within it (0..len(rproj)), and a copy of jc whose residual right
// positions index the payload; rightPos[0], the physical key, keeps its
// input-row position.
func payloadCols(jc *joinCols, rproj []int) (cols, out []int, pjc *joinCols) {
	cols = append([]int(nil), rproj...)
	out = make([]int, len(rproj))
	for i := range out {
		out[i] = i
	}
	pjc = &joinCols{ids: jc.ids, leftPos: jc.leftPos, rightPos: append([]int(nil), jc.rightPos...)}
	for k := 1; k < len(jc.ids); k++ {
		at := -1
		for i, c := range cols {
			if c == jc.rightPos[k] {
				at = i
				break
			}
		}
		if at < 0 {
			at = len(cols)
			cols = append(cols, jc.rightPos[k])
		}
		pjc.rightPos[k] = at
	}
	return cols, out, pjc
}

func (e *Executor) buildScanVec(n *plan.Node, meter *Meter, res *Result, capacity int) (batchOperator, *schema, error) {
	rel := n.Scan.Rel
	r := &e.q.Relations[rel]
	relation := e.store.Relation(r.Table)
	if relation == nil {
		return nil, nil, fmt.Errorf("exec: store missing relation %s", r.Table)
	}
	sch := e.relSchema(rel)
	seq := func() (batchOperator, *schema, error) {
		filters := e.compileFilters(rel, -1)
		return &vecSeqScan{
			rel:     relation,
			filters: filters,
			kernels: compileKernels(relation, filters),
			meter:   meter,
			ex:      e,
			cls:     meter.Class(e.params.SeqTuple),
			cap:     capacity,
		}, sch, nil
	}
	switch n.Scan.Method {
	case plan.SeqScan:
		return seq()
	case plan.IndexScan:
		// Degradation ladder rung 1, identical to the tuple builder: a
		// persistent index-probe fault downgrades to a sequential scan.
		if ferr := e.faults.Check(faultinject.SiteIndexProbe); ferr != nil {
			if faultinject.IsTransient(ferr) {
				return nil, nil, opError("indexscan", ferr)
			}
			res.Degraded = append(res.Degraded,
				fmt.Sprintf("indexscan→seqscan rel=%s (%v)", r.Alias, ferr))
			return seq()
		}
		rows, bestIdx, err := e.planIndexScan(rel, relation)
		if err != nil {
			return nil, nil, err
		}
		return &vecIndexScan{
			rel:     relation,
			rows:    rows,
			filters: e.compileFilters(rel, bestIdx),
			meter:   meter,
			ex:      e,
			cls:     meter.Class(e.params.IdxTuple),
			cap:     capacity,
		}, sch, nil
	default:
		return nil, nil, fmt.Errorf("exec: unknown scan method")
	}
}

func (e *Executor) buildJoinVec(n *plan.Node, need []string, meter *Meter, res *Result, capacity int) (batchOperator, *schema, error) {
	// Children must carry this join's keys on top of what is needed
	// above it. The full slice expression keeps siblings from sharing
	// appends.
	childNeed := append(need[:len(need):len(need)], e.joinColNames(n)...)
	lop, ls, err := e.buildVec(n.Left, childNeed, meter, res, capacity)
	if err != nil {
		return nil, nil, err
	}
	switch n.Join.Method {
	case plan.HashJoin, plan.MergeJoin, plan.NLJoin:
		rop, rs, err := e.buildVec(n.Right, childNeed, meter, res, capacity)
		if err != nil {
			return nil, nil, err
		}
		jc, err := e.resolveJoinCols(n, ls, rs)
		if err != nil {
			return nil, nil, err
		}
		lproj, rproj := ls.project(need), rs.project(need)
		sch := projectedSchema(ls, rs, lproj, rproj)
		base := vecJoinBase{e: e, meter: meter, jc: jc, left: lop, right: rop}
		switch n.Join.Method {
		case plan.HashJoin:
			payload, out, pjc := payloadCols(jc, rproj)
			base.jc = pjc
			return &vecHashJoin{
				vecJoinBase: base,
				hint:        e.cardHint(n.Right),
				payload:     payload,
				clsBuild:    meter.Class(e.params.HashBuild),
				clsProbe:    meter.Class(e.params.HashProbe),
				clsOut:      meter.Class(e.params.Tuple),
				out:         e.pool.getOut(lproj, out, capacity),
				lcols:       scanCols(lop, lproj),
			}, sch, nil
		case plan.MergeJoin:
			return &vecMergeJoin{
				vecJoinBase: base,
				clsMerge:    meter.Class(e.params.Merge),
				clsOut:      meter.Class(e.params.Tuple),
				out:         e.pool.getOut(lproj, rproj, capacity),
			}, sch, nil
		default:
			return &vecNLJoin{
				vecJoinBase: base,
				clsMat:      meter.Class(e.params.Mat),
				clsPair:     meter.Class(e.params.NLPair),
				clsOut:      meter.Class(e.params.Tuple),
				out:         e.pool.getOut(lproj, rproj, capacity),
			}, sch, nil
		}
	case plan.IndexNLJoin:
		rel := n.Right.Scan.Rel
		rs := e.relSchema(rel)
		jc, err := e.resolveJoinCols(n, ls, rs)
		if err != nil {
			return nil, nil, err
		}
		relation := e.store.Relation(e.q.Relations[rel].Table)
		if relation == nil {
			return nil, nil, fmt.Errorf("exec: store missing relation %s", e.q.Relations[rel].Table)
		}
		innerCol := jc.rightPos[0]
		if !relation.HasHashIndex(innerCol) {
			return nil, nil, fmt.Errorf("exec: no hash index on %s column %d for INL join",
				relation.Name, innerCol)
		}
		lproj, rproj := ls.project(need), rs.project(need)
		sch := projectedSchema(ls, rs, lproj, rproj)
		filters := e.compileFilters(rel, -1)
		j := &vecIndexNLJoin{
			vecJoinBase: vecJoinBase{e: e, meter: meter, jc: jc, left: lop},
			rel:         relation,
			filters:     filters,
			kernels:     compileKernels(relation, filters),
			clsDescend:  meter.Class(e.params.IdxDescend * log2g(float64(relation.NumRows()))),
			clsFetch:    meter.Class(e.params.IdxTuple),
			clsOut:      meter.Class(e.params.Tuple),
			lcols:       scanCols(lop, lproj),
			ls:          e.faults != nil,
		}
		if !j.ls {
			rproj = j.columnarInner(rproj)
		}
		j.out = e.pool.getOut(lproj, rproj, capacity)
		return j, sch, nil
	default:
		return nil, nil, fmt.Errorf("exec: unknown join method")
	}
}

// vecJoinBase is the batch engine's counterpart of joinBase: shared
// join state plus the run-time selectivity monitor.
type vecJoinBase struct {
	e           *Executor
	meter       *Meter
	jc          *joinCols
	left, right batchOperator
	obs         JoinObs
	// exact marks that both inputs were fully consumed, making the
	// observed selectivity exact.
	exact bool
}

// observations implements joinObserver, recursing into children.
func (b *vecJoinBase) observations(into map[int]float64) {
	if b.exact {
		for _, id := range b.jc.ids {
			into[id] = b.obs.Sel()
		}
	}
	collectObservations(b.left, into)
	if b.right != nil {
		collectObservations(b.right, into)
	}
}
