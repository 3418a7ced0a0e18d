// Package query implements the base station's approximate-query engine:
// a hierarchical aggregate index over the per-chunk summaries of a
// sensor's compressed history. Each received chunk (one transmission,
// Section 3.2) contributes a per-quantity Summary — sum, count, min, max,
// and the chunk's guaranteed maximum-absolute error bound (Section 4.5) —
// and the summaries are rolled up into an append-only segment tree so any
// chunk-aligned range aggregate merges O(log n) nodes instead of scanning
// the reconstructed history. The station handles ragged (sub-chunk) edges
// by exact reconstruction; everything in between comes from the tree.
//
// The design follows the PlatoDB observation (Brito et al., see PAPERS.md)
// that compressed segment summaries with per-node error bounds answer
// aggregates in sublinear time while keeping deterministic error
// guarantees.
package query

import (
	"fmt"
	"math"
	"math/bits"

	"sbr/internal/obs"
	"sbr/internal/timeseries"
)

// Summary aggregates a span of samples of one quantity. The zero value is
// the identity element of Merge.
type Summary struct {
	Count int     // samples covered
	Sum   float64 // sum of the reconstructed samples
	Min   float64 // smallest reconstructed sample
	Max   float64 // largest reconstructed sample

	// BoundMax is the worst per-sample maximum-absolute error bound across
	// the chunks contributing to the span (zero when the sensor did not run
	// under the MaxAbs metric). BoundSum is the sum of the per-sample
	// bounds, i.e. Σ count_i × bound_i over contributing chunks: the
	// guaranteed error envelope of Sum.
	BoundMax float64
	BoundSum float64
}

// Empty reports whether the summary covers no samples.
func (a Summary) Empty() bool { return a.Count == 0 }

// Merge combines two span summaries into the summary of their union.
func Merge(a, b Summary) Summary {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	return Summary{
		Count:    a.Count + b.Count,
		Sum:      a.Sum + b.Sum,
		Min:      minOf(a.Min, b.Min),
		Max:      maxOf(a.Max, b.Max),
		BoundMax: maxOf(a.BoundMax, b.BoundMax),
		BoundSum: a.BoundSum + b.BoundSum,
	}
}

// minOf is math.Min bit for bit, small enough for the compiler to inline.
// The builtin min agrees with math.Min unless an operand is NaN: then it
// returns a NaN where math.Min returns −Inf for a −Inf operand, and it
// keeps an operand's NaN payload where math.Min returns the canonical
// NaN. A NaN result sends those cases to math.Min.
func minOf(x, y float64) float64 {
	if m := min(x, y); m == m {
		return m
	}
	return math.Min(x, y)
}

// maxOf is math.Max bit for bit, and inlinable, as minOf is math.Min.
func maxOf(x, y float64) float64 {
	if m := max(x, y); m == m {
		return m
	}
	return math.Max(x, y)
}

// Summarize builds the summary of one span of reconstructed samples whose
// chunk shipped with the given maximum-absolute error bound.
func Summarize(s timeseries.Series, bound float64) Summary {
	if len(s) == 0 {
		return Summary{}
	}
	sum, lo, hi := s[0], s[0], s[0]
	for _, v := range s[1:] {
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return Leaf(len(s), sum, lo, hi, bound)
}

// Leaf is the summary of count samples with the given sum, minimum and
// maximum from a chunk that shipped with the given maximum-absolute error
// bound: Summarize's result, rebuilt from the digest an archive keeps.
func Leaf(count int, sum, min, max, bound float64) Summary {
	return Summary{
		Count:    count,
		Sum:      sum,
		Min:      min,
		Max:      max,
		BoundMax: bound,
		BoundSum: bound * float64(count),
	}
}

// Index is the per-sensor hierarchical aggregate index: one append-only
// segment tree per recorded quantity, with chunks as the leaves. It is not
// safe for concurrent use; the station guards it with its own lock.
type Index struct {
	m    int     // samples per chunk (columns of each transmission)
	rows []*tree // one tree per quantity

	// Telemetry hooks (nil-safe; see internal/obs): queries counts
	// QueryChunks calls, nodes the tree nodes merged answering them —
	// together they expose the index's merge fan-out on a live station.
	queries *obs.Counter
	nodes   *obs.Counter
}

// NewIndex creates an index for n quantities of m samples per chunk.
func NewIndex(n, m int) (*Index, error) {
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("query: invalid index shape %d×%d", n, m)
	}
	rows := make([]*tree, n)
	for i := range rows {
		rows[i] = &tree{}
	}
	return &Index{m: m, rows: rows}, nil
}

// Instrument attaches the telemetry counters the station shares across
// its per-sensor indexes. Counters are atomic, so instrumented queries
// stay safe under the station's read lock.
func (ix *Index) Instrument(queries, nodes *obs.Counter) {
	ix.queries, ix.nodes = queries, nodes
}

// Depth returns the height of the deepest segment tree — the worst-case
// per-row node count a chunk-aligned query can touch per edge.
func (ix *Index) Depth() int {
	depth := 0
	for _, t := range ix.rows {
		if len(t.levels) > depth {
			depth = len(t.levels)
		}
	}
	return depth
}

// M returns the samples-per-chunk the index was built for.
func (ix *Index) M() int { return ix.m }

// Rows returns the number of indexed quantities.
func (ix *Index) Rows() int { return len(ix.rows) }

// Chunks returns the number of chunks appended so far.
func (ix *Index) Chunks() int {
	if len(ix.rows) == 0 {
		return 0
	}
	return ix.rows[0].count
}

// AppendChunk indexes one decoded transmission: rows[i] is quantity i's
// reconstructed chunk, bound the chunk's shipped maximum-absolute error
// bound (zero when absent).
func (ix *Index) AppendChunk(rows []timeseries.Series, bound float64) error {
	if len(rows) != len(ix.rows) {
		return fmt.Errorf("query: chunk has %d rows, index has %d", len(rows), len(ix.rows))
	}
	for i, r := range rows {
		if len(r) != ix.m {
			return fmt.Errorf("query: chunk row %d has %d samples, want %d", i, len(r), ix.m)
		}
		ix.rows[i].append(Summarize(r, bound))
	}
	return nil
}

// NewIndexFromLeaves rebuilds an index from per-chunk summaries (one
// slice per quantity, in chunk order) — what a restart reads back from
// the archive's segment footers. Every row must hold the same number of
// chunks. Each tree is built bottom-up, every level once and at its exact
// length, with the same node values incremental AppendChunk calls would
// have produced; the leaf slices become the trees' first levels, and the
// levels above them, of every tree, share one allocation.
func NewIndexFromLeaves(n, m int, leaves [][]Summary) (*Index, error) {
	if len(leaves) != n {
		return nil, fmt.Errorf("query: %d leaf rows for %d quantities", len(leaves), n)
	}
	ix, err := NewIndex(n, m)
	if err != nil {
		return nil, err
	}
	count := len(leaves[0])
	for row, ls := range leaves {
		if len(ls) != count {
			return nil, fmt.Errorf("query: leaf row %d has %d chunks, row 0 has %d",
				row, len(ls), count)
		}
	}
	upper := 0 // nodes above the leaves, per tree
	for w := count; w > 1; w = (w + 1) / 2 {
		upper += (w + 1) / 2
	}
	nodes := make([]Summary, n*upper)
	for row, ls := range leaves {
		ix.rows[row] = buildTree(ls, nodes[row*upper:(row+1)*upper])
	}
	return ix, nil
}

// buildTree lays a tree over leaves level by level, the levels above them
// cut from nodes, which holds exactly their nodes: node i of each level
// merges children 2i and 2i+1 of the level below, or copies a lone right
// edge child, up to a single root — exactly the nodes append leaves. Each
// level's capacity ends at its length, and the first append moves the
// levels out of nodes (see tree.append).
func buildTree(leaves, nodes []Summary) *tree {
	t := &tree{count: len(leaves), shared: len(nodes) > 0}
	if len(leaves) == 0 {
		return t
	}
	t.levels = make([][]Summary, 1, bits.Len(uint(len(leaves)-1))+1)
	t.levels[0] = leaves
	for lv := leaves; len(lv) > 1; {
		w := (len(lv) + 1) / 2
		up := nodes[:w:w]
		nodes = nodes[w:]
		for i := range up {
			if 2*i+1 < len(lv) {
				up[i] = Merge(lv[2*i], lv[2*i+1])
			} else {
				up[i] = lv[2*i]
			}
		}
		t.levels = append(t.levels, up)
		lv = up
	}
	return t
}

// QueryChunks merges the summaries of chunks [c0, c1) of one quantity in
// O(log n) node merges. An empty or inverted range yields the zero Summary.
func (ix *Index) QueryChunks(row, c0, c1 int) (Summary, error) {
	if row < 0 || row >= len(ix.rows) {
		return Summary{}, fmt.Errorf("query: row %d outside [0,%d)", row, len(ix.rows))
	}
	t := ix.rows[row]
	if c0 < 0 || c1 > t.count {
		return Summary{}, fmt.Errorf("query: chunk range [%d,%d) outside [0,%d)", c0, c1, t.count)
	}
	sum, visited := t.query(c0, c1)
	ix.queries.Inc()
	ix.nodes.Add(uint64(visited))
	return sum, nil
}

// Snapshot is an immutable point-in-time view of an index, safe to query
// while the index keeps absorbing AppendChunk calls from another
// goroutine. It relies on the tree's append-only discipline: a node whose
// span lies entirely inside the snapshot's chunk count is complete — both
// its children existed when it was last written — and complete nodes are
// never rewritten by later appends (append only recomputes the ancestors
// of the newest leaf, whose indexes strictly pass a completed node's).
// The snapshot copies the per-level slice headers, so level growth and
// reallocation in the live tree cannot touch it, and its query walk is
// clipped to the snapshot count so it never reads an incomplete right-edge
// node the writer may be rewriting in place.
//
// Snapshot must be called while holding whatever lock serialises
// AppendChunk (the station's per-sensor lock); the returned value is then
// free of any locking for its whole lifetime.
type Snapshot struct {
	m    int
	rows []treeSnap

	queries *obs.Counter
	nodes   *obs.Counter
}

// treeSnap is one quantity's frozen tree: the level slice headers as of
// the snapshot, valid for chunk spans within [0, count).
type treeSnap struct {
	count  int
	levels [][]Summary
}

// Snapshot captures the index at its current chunk count. See the type
// comment for the locking contract.
func (ix *Index) Snapshot() *Snapshot {
	sn := &Snapshot{m: ix.m, queries: ix.queries, nodes: ix.nodes}
	sn.rows = make([]treeSnap, len(ix.rows))
	for i, t := range ix.rows {
		sn.rows[i] = treeSnap{count: t.count, levels: append([][]Summary(nil), t.levels...)}
	}
	return sn
}

// M returns the samples-per-chunk of the snapshotted index.
func (sn *Snapshot) M() int { return sn.m }

// Chunks returns the number of chunks the snapshot covers.
func (sn *Snapshot) Chunks() int {
	if len(sn.rows) == 0 {
		return 0
	}
	return sn.rows[0].count
}

// QueryChunks merges the summaries of chunks [c0, c1) of one quantity,
// exactly like Index.QueryChunks but against the frozen view: concurrent
// appends past the snapshot count are invisible and harmless.
func (sn *Snapshot) QueryChunks(row, c0, c1 int) (Summary, error) {
	if row < 0 || row >= len(sn.rows) {
		return Summary{}, fmt.Errorf("query: row %d outside [0,%d)", row, len(sn.rows))
	}
	t := sn.rows[row]
	if c0 < 0 || c1 > t.count {
		return Summary{}, fmt.Errorf("query: chunk range [%d,%d) outside [0,%d)", c0, c1, t.count)
	}
	sum, visited := snapQuery(t.levels, c0, c1)
	sn.queries.Inc()
	sn.nodes.Add(uint64(visited))
	return sum, nil
}

// snapQuery is the iterative segment-tree walk over frozen level headers.
// The bounds-as-given invariant (hi never exceeds the snapshot count)
// guarantees every node it touches covers a span wholly inside the
// snapshot, i.e. a complete node the live writer will never rewrite.
func snapQuery(levels [][]Summary, lo, hi int) (Summary, int) {
	var out Summary
	visited := 0
	for lv := 0; lo < hi; lv++ {
		level := levels[lv]
		if lo&1 == 1 {
			out = Merge(out, level[lo])
			lo++
			visited++
		}
		if hi&1 == 1 {
			hi--
			out = Merge(out, level[hi])
			visited++
		}
		lo >>= 1
		hi >>= 1
	}
	return out, visited
}

// tree is an append-only segment tree stored as levels of merged pairs:
// levels[0] holds one Summary per chunk and levels[k][i] summarises chunks
// [i<<k, min((i+1)<<k, count)). Appending a chunk touches one node per
// level; querying merges at most two nodes per level.
type tree struct {
	count  int
	levels [][]Summary
	// shared marks levels above the leaves that buildTree cut from one
	// block, possibly with other trees' levels.
	shared bool
}

func (t *tree) append(s Summary) {
	if t.shared {
		// Move every upper level out of the shared block before the first
		// append. Left to grow one by one, the top levels would keep the
		// whole block allocated until the history passes the next power
		// of two.
		for lv := 1; lv < len(t.levels); lv++ {
			t.levels[lv] = append([]Summary(nil), t.levels[lv]...)
		}
		t.shared = false
	}
	if len(t.levels) == 0 {
		t.levels = append(t.levels, nil)
	}
	t.levels[0] = append(t.levels[0], s)
	t.count++
	// Rebuild the new leaf's one ancestor per level until a level holds a
	// single node covering everything. The right-edge node of each level
	// may summarise a lone child until its sibling arrives.
	lv, idx := 0, t.count-1
	for len(t.levels[lv]) > 1 {
		lv++
		idx >>= 1
		t.ensureLevel(lv)
		t.setNode(lv, idx)
	}
}

func (t *tree) ensureLevel(lv int) {
	for len(t.levels) <= lv {
		t.levels = append(t.levels, nil)
	}
}

// setNode recomputes node idx of level lv from its children on level lv-1.
func (t *tree) setNode(lv, idx int) {
	child := t.levels[lv-1]
	left := child[2*idx]
	s := left
	if 2*idx+1 < len(child) {
		s = Merge(left, child[2*idx+1])
	}
	if idx < len(t.levels[lv]) {
		t.levels[lv][idx] = s
		return
	}
	t.levels[lv] = append(t.levels[lv], s)
}

// query merges chunks [lo, hi) bottom-up: consume an odd edge node on the
// current level, halve, repeat — the classic iterative segment-tree walk.
// It also reports how many tree nodes the walk merged, for telemetry.
func (t *tree) query(lo, hi int) (Summary, int) {
	var out Summary
	visited := 0
	for lv := 0; lo < hi; lv++ {
		level := t.levels[lv]
		if lo&1 == 1 {
			out = Merge(out, level[lo])
			lo++
			visited++
		}
		if hi&1 == 1 {
			hi--
			out = Merge(out, level[hi])
			visited++
		}
		lo >>= 1
		hi >>= 1
	}
	return out, visited
}
