package exec

import (
	"io"
	"sort"

	"repro/internal/expr"
	"repro/internal/storage"
)

// graceTable is the hash join's partitioned (grace-style) build table:
// keys are hash-partitioned into 8 partitions by their top hash bits,
// and each partition keeps an open-addressed key directory over flat
// parallel entry arrays. Compared to map[int64][]expr.Row this removes
// the per-distinct-key slice allocations and the map's per-probe
// hashing/bucket walk, keeps each partition's entries contiguous, and
// preserves per-key insertion order through chain links — so match
// emission order is identical to the map-append build.
const (
	gracePartBits = 3
	graceParts    = 1 << gracePartBits
)

type graceTable struct {
	parts [graceParts]gracePart
}

type gracePart struct {
	// slots/tails form the open-addressed directory: a slot holds the
	// entry index+1 of its key's chain head (0 = empty), tails the
	// chain's last entry for O(1) in-order appends.
	slots []int32
	tails []int32
	mask  uint64
	// Entry arrays, parallel: key and next same-key entry (-1 ends the
	// chain). vals is the payload slab: entry e's projected build-row
	// values are vals[e*width : (e+1)*width].
	keys  []int64
	next  []int32
	vals  []expr.Value
	width int
}

// hashKey is Fibonacci hashing; the multiplier spreads consecutive ints
// across both the top (partition) and low (slot) bits.
func hashKey(k int64) uint64 { return uint64(k) * 0x9E3779B97F4A7C15 }

// reset empties the table for a build of about hint entries of width
// payload values each. Arrays large enough are kept, so a table
// recycled through bufPool builds without allocating; only the slot
// directory is cleared (tails and the entry arrays are only read
// behind a set slot or a chain link, both rewritten before use).
func (t *graceTable) reset(hint, width int) {
	per := hint / graceParts
	for i := range t.parts {
		p := &t.parts[i]
		n := 4
		for n < 2*per {
			n <<= 1
		}
		if cap(p.slots) >= n {
			p.slots = p.slots[:n]
			clear(p.slots)
			p.tails = p.tails[:n]
		} else {
			p.slots = make([]int32, n)
			p.tails = make([]int32, n)
		}
		p.mask = uint64(n - 1)
		if cap(p.keys) < per {
			p.keys = make([]int64, 0, per)
			p.next = make([]int32, 0, per)
		}
		if cap(p.vals) < per*width {
			p.vals = make([]expr.Value, 0, per*width)
		}
		p.keys, p.next, p.vals = p.keys[:0], p.next[:0], p.vals[:0]
		p.width = width
	}
}

// insert adds key k with the payload columns of row.
func (t *graceTable) insert(k int64, row expr.Row, payload []int) {
	h := hashKey(k)
	t.parts[h>>(64-gracePartBits)].insert(h, k, row, payload)
}

func (p *gracePart) insert(h uint64, k int64, row expr.Row, payload []int) {
	if 2*(len(p.keys)+1) > len(p.slots) {
		p.grow()
	}
	e := int32(len(p.keys))
	p.keys = append(p.keys, k)
	p.next = append(p.next, -1)
	for _, c := range payload {
		p.vals = append(p.vals, row[c])
	}
	s := h & p.mask
	for {
		head := p.slots[s]
		if head == 0 {
			p.slots[s] = e + 1
			p.tails[s] = e + 1
			return
		}
		if p.keys[head-1] == k {
			p.next[p.tails[s]-1] = e
			p.tails[s] = e + 1
			return
		}
		s = (s + 1) & p.mask
	}
}

// grow doubles the slot directory. Chains live in the entry arrays and
// are untouched; only the distinct keys' heads re-probe.
func (p *gracePart) grow() {
	old, oldTails := p.slots, p.tails
	n := len(old) * 2
	p.slots = make([]int32, n)
	p.tails = make([]int32, n)
	p.mask = uint64(n - 1)
	for i, head := range old {
		if head == 0 {
			continue
		}
		s := hashKey(p.keys[head-1]) & p.mask
		for p.slots[s] != 0 {
			s = (s + 1) & p.mask
		}
		p.slots[s] = head
		p.tails[s] = oldTails[i]
	}
}

// row returns entry e's payload values.
func (p *gracePart) row(e int32) expr.Row {
	s := int(e) * p.width
	return p.vals[s : s+p.width : s+p.width]
}

// lookup returns the partition and first entry index of the key's
// chain, or entry -1 when the key is absent.
func (t *graceTable) lookup(k int64) (*gracePart, int32) {
	h := hashKey(k)
	p := &t.parts[h>>(64-gracePartBits)]
	s := h & p.mask
	for {
		head := p.slots[s]
		if head == 0 {
			return p, -1
		}
		if p.keys[head-1] == k {
			return p, head - 1
		}
		s = (s + 1) & p.mask
	}
}

// buildKeyCol returns the typed int column behind a batch's key
// position when the batch aliases a scanned relation with a clean,
// null-free columnar projection — letting build and probe loops read
// keys from the contiguous vector instead of chasing row pointers.
func buildKeyCol(b *rowBatch, pos int) *storage.Column {
	if b.rel == nil {
		return nil
	}
	return cleanIntCol(b.rel, pos)
}

// vecHashJoin builds on the right child and probes with the left, batch
// at a time. The probe loop gathers all matches of consecutive probe
// rows into the output arena; output charges accumulate in outPending
// and bill as one ChargeN per emitted arena (flushed at take / EOF).
// At capacity 1 (lockstep) the arena holds one row, so the flush
// degenerates to the tuple engine's exact per-row charge order.
//
// The build copies only each row's payload columns (see payloadCols)
// into the table's value slab, so unstable build rows need no clone and
// the probe reads matches from the slab instead of chasing storage
// rows; jc's residual right positions index the payload.
type vecHashJoin struct {
	vecJoinBase
	hint                       int
	payload                    []int
	clsBuild, clsProbe, clsOut int
	out                        *outBuf
	table                      *graceTable
	pb                         *rowBatch
	pi                         int
	// pkc is the probe batch's columnar key vector (nil when the batch
	// has none). With it and lcols, the vectors of the projected left
	// columns (see scanCols), a probe row read off a scan is never
	// dereferenced unless a residual needs it.
	pkc        *storage.Column
	lcols      []*storage.Column
	cur        probeRow
	mp         *gracePart
	me         int32
	outPending int64
	done       bool
}

func (h *vecHashJoin) Open() error {
	if err := h.left.Open(); err != nil {
		return err
	}
	if err := h.right.Open(); err != nil {
		return err
	}
	if h.table == nil {
		h.table = h.e.pool.getTable(h.hint, len(h.payload))
	}
	kpos := h.jc.rightPos[0]
	for {
		b, err := h.right.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		n := b.n()
		if _, err := h.meter.ChargeN(h.clsBuild, int64(n)); err != nil {
			return err
		}
		h.obs.RightRows += int64(n)
		if kc := buildKeyCol(b, kpos); kc != nil {
			// Columnar build: keys come straight off the typed vector at
			// the batch's absolute offsets.
			if b.sel == nil {
				for i := 0; i < n; i++ {
					h.table.insert(kc.Ints[b.off+i], b.base[i], h.payload)
				}
			} else {
				for _, s := range b.sel {
					h.table.insert(kc.Ints[b.off+int(s)], b.base[s], h.payload)
				}
			}
			continue
		}
		for i := 0; i < n; i++ {
			row := b.row(i)
			k := row[kpos]
			if k.IsNull() {
				continue
			}
			h.table.insert(k.I, row, h.payload)
		}
	}
	h.pb, h.pi = nil, 0
	h.mp, h.me = nil, -1
	h.outPending = 0
	h.done = false
	return nil
}

// flushOut bills the accumulated output charges of the current arena.
func (h *vecHashJoin) flushOut() error {
	if h.outPending == 0 {
		return nil
	}
	n := h.outPending
	h.outPending = 0
	_, err := h.meter.ChargeN(h.clsOut, n)
	return err
}

// fastProbe counts the build matches of every key in the probe batch.
func (h *vecHashJoin) fastProbe(b *rowBatch, kc *storage.Column) int64 {
	matches := int64(0)
	ints := kc.Ints
	if b.sel == nil {
		for i := range b.base {
			p, e := h.table.lookup(ints[b.off+i])
			for ; e >= 0; e = p.next[e] {
				matches++
			}
		}
		return matches
	}
	for _, s := range b.sel {
		p, e := h.table.lookup(ints[b.off+int(s)])
		for ; e >= 0; e = p.next[e] {
			matches++
		}
	}
	return matches
}

func (h *vecHashJoin) NextBatch() (*rowBatch, error) {
	if h.done {
		return nil, io.EOF
	}
	h.out.reset()
	for {
		// Drain the current probe row's pending matches into the arena.
		gathered := int64(0)
		for h.me >= 0 && !h.out.full() {
			r := h.mp.row(h.me)
			h.me = h.mp.next[h.me]
			if !h.jc.residualsMatch(h.cur.row, r) {
				continue
			}
			h.cur.emit(h.out, r)
			gathered++
		}
		if gathered > 0 {
			h.outPending += gathered
			h.obs.OutRows += gathered
		}
		if h.out.full() {
			if err := h.flushOut(); err != nil {
				return nil, err
			}
			return h.out.take(), nil
		}
		// Matches exhausted: advance to the next probe row.
		if h.pb == nil || h.pi >= h.pb.n() {
			b, err := h.left.NextBatch()
			if err == io.EOF {
				h.exact = true
				h.done = true
				if err := h.flushOut(); err != nil {
					return nil, err
				}
				if h.out.len() > 0 {
					return h.out.take(), nil
				}
				return nil, io.EOF
			}
			if err != nil {
				return nil, err
			}
			if _, err := h.meter.ChargeN(h.clsProbe, int64(b.n())); err != nil {
				return nil, err
			}
			h.obs.LeftRows += int64(b.n())
			h.pb, h.pi = b, 0
			h.pkc = buildKeyCol(b, h.jc.leftPos[0])
			h.cur.cols = nil
			if b.rel != nil {
				h.cur.cols = h.lcols
			}
			// Count-only fast probe: when the root arena discards rows and
			// the join has no residual predicates, matches only need to be
			// counted — the whole probe batch runs as one tight loop over
			// the columnar key vector with no row fetches or emits.
			if h.out.discard && len(h.jc.ids) == 1 && h.pkc != nil {
				m := h.fastProbe(b, h.pkc)
				h.outPending += m
				h.obs.OutRows += m
				h.out.count += int(m)
				h.pi = b.n()
				if h.out.full() {
					if err := h.flushOut(); err != nil {
						return nil, err
					}
					return h.out.take(), nil
				}
				continue
			}
		}
		h.cur.row, h.cur.ord = h.pb.row(h.pi), h.pb.off+h.pb.ord(h.pi)
		h.pi++
		if h.pkc != nil {
			h.mp, h.me = h.table.lookup(h.pkc.Ints[h.cur.ord])
		} else if k := h.cur.row[h.jc.leftPos[0]]; !k.IsNull() {
			h.mp, h.me = h.table.lookup(k.I)
		} else {
			h.mp, h.me = nil, -1
		}
	}
}

func (h *vecHashJoin) Close() error {
	h.e.pool.putOut(h.out)
	h.out = nil
	if err := h.left.Close(); err != nil {
		return err
	}
	if h.right != nil {
		// A morsel-worker clone shares the build table (right == nil
		// marks the clone); only the owner recycles it.
		h.e.pool.putTable(h.table)
		h.table = nil
		return h.right.Close()
	}
	return nil
}

// vecMergeJoin drains and sorts both inputs at Open, then merges batch
// at a time. Merge-advance charges for one left row and its right-side
// skips are consecutive in the tuple engine too, so they are billed as
// one ChargeN chunk — identical counts at every possible kill point.
type vecMergeJoin struct {
	vecJoinBase
	clsMerge, clsOut int
	out              *outBuf
	lrows, rrows     []expr.Row
	li, ri           int
	group            []expr.Row
	gi               int
	cur              expr.Row
	done             bool
}

func (m *vecMergeJoin) Open() error {
	if err := m.left.Open(); err != nil {
		return err
	}
	if err := m.right.Open(); err != nil {
		return err
	}
	var err error
	m.lrows, err = m.drainAndSort(m.left, m.jc.leftPos[0])
	if err != nil {
		return err
	}
	m.rrows, err = m.drainAndSort(m.right, m.jc.rightPos[0])
	if err != nil {
		return err
	}
	m.obs.LeftRows = int64(len(m.lrows))
	m.obs.RightRows = int64(len(m.rrows))
	m.li, m.ri = 0, 0
	m.group = m.group[:0]
	m.gi = 0
	m.done = false
	return nil
}

func (m *vecMergeJoin) drainAndSort(op batchOperator, key int) ([]expr.Row, error) {
	var rows []expr.Row
	for {
		b, err := op.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		n := b.n()
		for i := 0; i < n; i++ {
			row := b.row(i)
			if !b.stable {
				row = cloneRow(row)
			}
			rows = append(rows, row)
		}
	}
	n := float64(len(rows))
	if err := m.meter.Charge(m.e.params.SortCmp * n * log2g(n)); err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(a, b int) bool {
		return expr.Compare(rows[a][key], rows[b][key]) < 0
	})
	return rows, nil
}

func (m *vecMergeJoin) NextBatch() (*rowBatch, error) {
	if m.done {
		return nil, io.EOF
	}
	m.out.reset()
	for {
		gathered := int64(0)
		for m.gi < len(m.group) && !m.out.full() {
			r := m.group[m.gi]
			m.gi++
			if !m.jc.residualsMatch(m.cur, r) {
				continue
			}
			m.out.emit(m.cur, r)
			gathered++
		}
		if gathered > 0 {
			if _, err := m.meter.ChargeN(m.clsOut, gathered); err != nil {
				return nil, err
			}
			m.obs.OutRows += gathered
		}
		if m.out.full() {
			return m.out.take(), nil
		}
		if m.li >= len(m.lrows) {
			m.exact = true
			m.done = true
			if m.out.len() > 0 {
				return m.out.take(), nil
			}
			return nil, io.EOF
		}
		l := m.lrows[m.li]
		m.li++
		lk := l[m.jc.leftPos[0]]
		if lk.IsNull() {
			if _, err := m.meter.ChargeN(m.clsMerge, 1); err != nil {
				return nil, err
			}
			m.group = m.group[:0]
			m.gi = 0
			continue
		}
		// Advance the right cursor to the key's group, billing the left
		// row plus every skipped right row in one chunk.
		skips := int64(0)
		for m.ri+int(skips) < len(m.rrows) &&
			expr.Compare(m.rrows[m.ri+int(skips)][m.jc.rightPos[0]], lk) < 0 {
			skips++
		}
		if _, err := m.meter.ChargeN(m.clsMerge, 1+skips); err != nil {
			return nil, err
		}
		m.ri += int(skips)
		m.group = m.group[:0]
		for k := m.ri; k < len(m.rrows) && expr.Compare(m.rrows[k][m.jc.rightPos[0]], lk) == 0; k++ {
			m.group = append(m.group, m.rrows[k])
		}
		m.cur = l
		m.gi = 0
	}
}

func (m *vecMergeJoin) Close() error {
	m.e.pool.putOut(m.out)
	m.out = nil
	if err := m.left.Close(); err != nil {
		return err
	}
	return m.right.Close()
}

// vecNLJoin materializes the inner child at Open and nest-loops outer
// batches over it. Pair charges up to and including the next match are
// consecutive in the tuple engine, so they bill as one ChargeN chunk —
// the charge sequence is tuple-exact at any batch capacity.
type vecNLJoin struct {
	vecJoinBase
	clsMat, clsPair, clsOut int
	out                     *outBuf
	inner                   []expr.Row
	pb                      *rowBatch
	pi                      int
	cur                     expr.Row
	ii                      int
	have                    bool
	done                    bool
}

func (n *vecNLJoin) Open() error {
	if err := n.left.Open(); err != nil {
		return err
	}
	if err := n.right.Open(); err != nil {
		return err
	}
	if n.inner == nil {
		n.inner = n.e.pool.getRows(DefaultBatchSize)
	}
	n.inner = n.inner[:0]
	for {
		b, err := n.right.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		cnt := b.n()
		if _, err := n.meter.ChargeN(n.clsMat, int64(cnt)); err != nil {
			return err
		}
		for i := 0; i < cnt; i++ {
			row := b.row(i)
			if !b.stable {
				row = cloneRow(row)
			}
			n.inner = append(n.inner, row)
		}
	}
	n.obs.RightRows = int64(len(n.inner))
	n.pb, n.pi = nil, 0
	n.have = false
	n.done = false
	return nil
}

func (n *vecNLJoin) NextBatch() (*rowBatch, error) {
	if n.done {
		return nil, io.EOF
	}
	n.out.reset()
	for {
		if !n.have {
			if n.pb == nil || n.pi >= n.pb.n() {
				b, err := n.left.NextBatch()
				if err == io.EOF {
					n.exact = true
					n.done = true
					if n.out.len() > 0 {
						return n.out.take(), nil
					}
					return nil, io.EOF
				}
				if err != nil {
					return nil, err
				}
				n.pb, n.pi = b, 0
			}
			n.cur = n.pb.row(n.pi)
			n.pi++
			n.obs.LeftRows++
			n.ii = 0
			n.have = true
		}
		// Scan the inner for the next match, counting pairs up to and
		// including the matching one.
		pairs := int64(0)
		var match expr.Row
		for n.ii < len(n.inner) {
			r := n.inner[n.ii]
			n.ii++
			pairs++
			if expr.Equal(n.cur[n.jc.leftPos[0]], r[n.jc.rightPos[0]]) && n.jc.residualsMatch(n.cur, r) {
				match = r
				break
			}
		}
		if pairs > 0 {
			if _, err := n.meter.ChargeN(n.clsPair, pairs); err != nil {
				return nil, err
			}
		}
		if match == nil {
			n.have = false // inner exhausted for this outer row
			continue
		}
		if _, err := n.meter.ChargeN(n.clsOut, 1); err != nil {
			return nil, err
		}
		n.obs.OutRows++
		n.out.emit(n.cur, match)
		if n.out.full() {
			return n.out.take(), nil
		}
	}
}

func (n *vecNLJoin) Close() error {
	n.e.pool.putOut(n.out)
	n.out = nil
	if err := n.left.Close(); err != nil {
		return err
	}
	if n.right != nil {
		// A morsel-worker clone shares the materialized inner with the
		// original operator (right == nil marks the clone); only the
		// owner recycles it.
		n.e.pool.putRows(n.inner)
		n.inner = nil
		return n.right.Close()
	}
	return nil
}
