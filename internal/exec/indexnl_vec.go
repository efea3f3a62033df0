package exec

import (
	"io"

	"repro/internal/expr"
	"repro/internal/storage"
)

// vecIndexNLJoin streams outer batches, probing the inner relation's
// hash index per outer row. In the default batched mode the fetch
// charges of one probe's matches bill as one ChargeN before filtering;
// in lockstep mode (armed faults) fetch and output charges interleave
// per match exactly like the tuple engine, so kill points replay bit
// for bit.
type vecIndexNLJoin struct {
	vecJoinBase
	rel     *storage.Relation
	filters []boundFilter
	// kernels are filters compiled against the inner's column vectors
	// (nil when the filters have no columnar form, or there are none).
	kernels []colKernel
	// clsDescend carries the whole per-outer-row descent charge
	// (IdxDescend·log₂(N+2)) as its class constant.
	clsDescend, clsFetch, clsOut int
	out                          *outBuf
	ls                           bool

	// columnar marks columnar inner reads (batched mode only, see
	// columnarInner): a fetched ordinal's filters run as kernels and its
	// projected values are read off cols into scratch, so the storage
	// row is never touched; jc's residual right positions then index
	// scratch.
	columnar bool
	cols     []*storage.Column
	scratch  expr.Row

	pb      *rowBatch
	pi      int
	pkc     *storage.Column // outer key vector and columns, as in vecHashJoin
	lcols   []*storage.Column
	cur     probeRow
	matches []int32
	mi      int
	have    bool
	done    bool
	// innerFiltered is the inner relation's filtered cardinality,
	// counted at every Open for the selectivity observation (a
	// statistics lookup, not execution work — hence uncharged).
	innerFiltered int64
}

// columnarInner switches the join to columnar inner reads when every
// inner value it reads — projected output columns and residual keys —
// sits in a null-free int vector and every filter compiled to a
// kernel. It returns the output projection over the inner values the
// join will emit from: scratch positions when columnar, the unchanged
// storage-row positions otherwise.
func (j *vecIndexNLJoin) columnarInner(rproj []int) []int {
	if len(j.filters) > 0 && j.kernels == nil {
		return rproj
	}
	layout, out, pjc := payloadCols(j.jc, rproj)
	cols, ok := cleanIntCols(j.rel, layout)
	if !ok {
		return rproj
	}
	j.columnar, j.cols, j.jc = true, cols, pjc
	j.scratch = make(expr.Row, len(cols))
	return out
}

func (j *vecIndexNLJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	j.innerFiltered = j.countInner()
	j.obs.RightRows = j.innerFiltered
	j.pb, j.pi = nil, 0
	j.have = false
	j.done = false
	return nil
}

// countInner counts the inner rows passing the filters: the row count
// when there are none, compiled kernels over the column vectors when
// the filters have a columnar form, the rows otherwise.
func (j *vecIndexNLJoin) countInner() int64 {
	total := j.rel.NumRows()
	if len(j.filters) == 0 {
		return int64(total)
	}
	n := int64(0)
	if j.kernels == nil {
		for _, row := range j.rel.Rows {
			if matchAll(j.filters, row) {
				n++
			}
		}
		return n
	}
	sel := j.e.pool.getSel(DefaultBatchSize)
	defer j.e.pool.putSel(sel)
	for pos := 0; pos < total; pos += DefaultBatchSize {
		end := min(pos+DefaultBatchSize, total)
		s := j.kernels[0].fill(pos, end, sel[:end-pos])
		for i := 1; i < len(j.kernels) && len(s) > 0; i++ {
			s = j.kernels[i].refine(pos, s)
		}
		n += int64(len(s))
	}
	return n
}

func (j *vecIndexNLJoin) NextBatch() (*rowBatch, error) {
	if j.done {
		return nil, io.EOF
	}
	j.out.reset()
	for {
		if !j.have {
			if j.pb == nil || j.pi >= j.pb.n() {
				b, err := j.left.NextBatch()
				if err == io.EOF {
					j.exact = true
					j.done = true
					if j.out.len() > 0 {
						return j.out.take(), nil
					}
					return nil, io.EOF
				}
				if err != nil {
					return nil, err
				}
				j.pb, j.pi = b, 0
				j.pkc = buildKeyCol(b, j.jc.leftPos[0])
				j.cur.cols = nil
				if b.rel != nil {
					j.cur.cols = j.lcols
				}
			}
			j.cur.row, j.cur.ord = j.pb.row(j.pi), j.pb.off+j.pb.ord(j.pi)
			j.pi++
			j.obs.LeftRows++
			// One index descent per outer row (charged before the null
			// check, like the tuple engine).
			if _, err := j.meter.ChargeN(j.clsDescend, 1); err != nil {
				return nil, err
			}
			var key int64
			if j.pkc != nil {
				key = j.pkc.Ints[j.cur.ord]
			} else {
				k := j.cur.row[j.jc.leftPos[0]]
				if k.IsNull() {
					continue
				}
				key = k.I
			}
			j.matches = j.rel.HashLookup(j.jc.rightPos[0], key)
			j.mi = 0
			j.have = true
			if !j.ls {
				// Batched mode: bill every random fetch of this probe up
				// front; the counts at any kill equal the tuple engine's
				// only for completed runs, which is all that is observable
				// without armed faults.
				if _, err := j.meter.ChargeN(j.clsFetch, int64(len(j.matches))); err != nil {
					return nil, err
				}
			}
		}
		if j.ls {
			for j.mi < len(j.matches) {
				inner := j.rel.Rows[j.matches[j.mi]]
				j.mi++
				if _, err := j.meter.ChargeN(j.clsFetch, 1); err != nil {
					return nil, err
				}
				if !j.innerMatches(inner) {
					continue
				}
				if _, err := j.meter.ChargeN(j.clsOut, 1); err != nil {
					return nil, err
				}
				j.obs.OutRows++
				j.cur.emit(j.out, inner)
				if j.out.full() {
					return j.out.take(), nil
				}
			}
			j.have = false
			continue
		}
		gathered := int64(0)
		for j.mi < len(j.matches) && !j.out.full() {
			ord := j.matches[j.mi]
			j.mi++
			if j.columnar {
				if !j.columnMatches(int(ord)) {
					continue
				}
				j.cur.emit(j.out, j.scratch)
			} else {
				inner := j.rel.Rows[ord]
				if !j.innerMatches(inner) {
					continue
				}
				j.cur.emit(j.out, inner)
			}
			gathered++
		}
		if gathered > 0 {
			if _, err := j.meter.ChargeN(j.clsOut, gathered); err != nil {
				return nil, err
			}
			j.obs.OutRows += gathered
		}
		if j.out.full() {
			return j.out.take(), nil
		}
		j.have = false
	}
}

// innerMatches applies the inner relation's filters and the join's
// residual predicates to a fetched inner row.
func (j *vecIndexNLJoin) innerMatches(inner expr.Row) bool {
	return matchAll(j.filters, inner) && j.jc.residualsMatch(j.cur.row, inner)
}

// columnMatches is innerMatches over the column vectors at inner
// ordinal ord; on a match scratch holds the ordinal's projected values.
func (j *vecIndexNLJoin) columnMatches(ord int) bool {
	for i := range j.kernels {
		if !j.kernels[i].match(ord) {
			return false
		}
	}
	for i, c := range j.cols {
		j.scratch[i] = expr.Int(c.Ints[ord])
	}
	return j.jc.residualsMatch(j.cur.row, j.scratch)
}

func (j *vecIndexNLJoin) Close() error {
	j.e.pool.putOut(j.out)
	j.out = nil
	return j.left.Close()
}
