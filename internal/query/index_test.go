package query

import (
	"math"
	"math/rand"
	"testing"

	"sbr/internal/timeseries"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

func TestSummarize(t *testing.T) {
	s := Summarize(timeseries.Series{3, -1, 4, 1, 5}, 0.25)
	if s.Count != 5 || !almostEq(s.Sum, 12) || s.Min != -1 || s.Max != 5 {
		t.Fatalf("summary %+v wrong", s)
	}
	if !almostEq(s.BoundMax, 0.25) || !almostEq(s.BoundSum, 1.25) {
		t.Fatalf("bounds %+v wrong", s)
	}
	if !Summarize(nil, 1).Empty() {
		t.Fatal("empty series must give empty summary")
	}
}

func TestMergeIdentity(t *testing.T) {
	s := Summarize(timeseries.Series{2, 7}, 0.5)
	if Merge(Summary{}, s) != s || Merge(s, Summary{}) != s {
		t.Fatal("zero Summary must be the identity of Merge")
	}
}

// buildIndex appends `chunks` random chunks of m samples per row and returns
// the index plus, per row, the flattened samples and per-chunk bounds.
func buildIndex(t *testing.T, rng *rand.Rand, n, m, chunks int) (*Index, [][]float64, []float64) {
	t.Helper()
	ix, err := NewIndex(n, m)
	if err != nil {
		t.Fatal(err)
	}
	flat := make([][]float64, n)
	var bounds []float64
	for c := 0; c < chunks; c++ {
		bound := rng.Float64()
		rows := make([]timeseries.Series, n)
		for r := range rows {
			rows[r] = make(timeseries.Series, m)
			for j := range rows[r] {
				rows[r][j] = rng.NormFloat64() * 10
			}
			flat[r] = append(flat[r], rows[r]...)
		}
		if err := ix.AppendChunk(rows, bound); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, bound)
	}
	return ix, flat, bounds
}

// TestQueryChunksMatchesBruteForce checks every chunk range of every size
// against a direct scan, across chunk counts that are not powers of two.
func TestQueryChunksMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, chunks := range []int{1, 2, 3, 5, 8, 13, 16, 17} {
		const n, m = 2, 8
		ix, flat, bounds := buildIndex(t, rng, n, m, chunks)
		if ix.Chunks() != chunks {
			t.Fatalf("Chunks() = %d, want %d", ix.Chunks(), chunks)
		}
		for row := 0; row < n; row++ {
			for c0 := 0; c0 <= chunks; c0++ {
				for c1 := c0; c1 <= chunks; c1++ {
					got, err := ix.QueryChunks(row, c0, c1)
					if err != nil {
						t.Fatal(err)
					}
					want := bruteForce(flat[row], bounds, m, c0, c1)
					if !summariesEq(got, want) {
						t.Fatalf("chunks=%d row=%d [%d,%d): got %+v want %+v",
							chunks, row, c0, c1, got, want)
					}
				}
			}
		}
	}
}

func bruteForce(flat []float64, bounds []float64, m, c0, c1 int) Summary {
	var out Summary
	for c := c0; c < c1; c++ {
		out = Merge(out, Summarize(flat[c*m:(c+1)*m], bounds[c]))
	}
	return out
}

func summariesEq(a, b Summary) bool {
	if a.Count != b.Count {
		return false
	}
	if a.Empty() {
		return b.Empty()
	}
	return almostEq(a.Sum, b.Sum) && a.Min == b.Min && a.Max == b.Max &&
		a.BoundMax == b.BoundMax && almostEq(a.BoundSum, b.BoundSum)
}

func TestIndexShapeErrors(t *testing.T) {
	if _, err := NewIndex(0, 4); err == nil {
		t.Fatal("NewIndex(0,4) must fail")
	}
	ix, _ := NewIndex(2, 4)
	if err := ix.AppendChunk([]timeseries.Series{{1, 2, 3, 4}}, 0); err == nil {
		t.Fatal("row-count mismatch must fail")
	}
	if err := ix.AppendChunk([]timeseries.Series{{1, 2}, {3, 4}}, 0); err == nil {
		t.Fatal("chunk-length mismatch must fail")
	}
	if _, err := ix.QueryChunks(5, 0, 0); err == nil {
		t.Fatal("out-of-range row must fail")
	}
	if _, err := ix.QueryChunks(0, 0, 1); err == nil {
		t.Fatal("chunk range beyond count must fail")
	}
}

// TestAppendCost confirms the tree stays logarithmic: node updates per
// append must be bounded by log2(count)+1.
func TestAppendCost(t *testing.T) {
	ix, _ := NewIndex(1, 2)
	for c := 0; c < 1024; c++ {
		if err := ix.AppendChunk([]timeseries.Series{{1, 2}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	levels := ix.rows[0].levels
	if len(levels) != 11 { // 1024 leaves → levels 0..10
		t.Fatalf("%d levels for 1024 chunks, want 11", len(levels))
	}
	for lv := 1; lv < len(levels); lv++ {
		want := (len(levels[lv-1]) + 1) / 2
		if len(levels[lv]) != want {
			t.Fatalf("level %d has %d nodes, want %d", lv, len(levels[lv]), want)
		}
	}
}

// sameSummaryBits compares two summaries bit for bit.
func sameSummaryBits(a, b Summary) bool {
	return a.Count == b.Count &&
		math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max) &&
		math.Float64bits(a.BoundMax) == math.Float64bits(b.BoundMax) &&
		math.Float64bits(a.BoundSum) == math.Float64bits(b.BoundSum)
}

// sameTree reports whether two trees hold bit-identical levels.
func sameTree(a, b *tree) bool {
	if a.count != b.count || len(a.levels) != len(b.levels) {
		return false
	}
	for lv := range a.levels {
		if len(a.levels[lv]) != len(b.levels[lv]) {
			return false
		}
		for i := range a.levels[lv] {
			if !sameSummaryBits(a.levels[lv][i], b.levels[lv][i]) {
				return false
			}
		}
	}
	return true
}

// TestNewIndexFromLeavesMatchesAppends pins the bottom-up restore: for
// every leaf count from 1 to 1025 the rebuilt tree's levels are
// bit-identical to incremental appends of the same leaves, each level is
// allocated at its exact length, and the two stay identical as further
// chunks arrive.
func TestNewIndexFromLeavesMatchesAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const m = 4
	leaf := func() Summary {
		s := make(timeseries.Series, m)
		for i := range s {
			s[i] = rng.NormFloat64() * 1e3
		}
		return Summarize(s, rng.Float64())
	}
	for n := 1; n <= 1025; n++ {
		leaves := make([]Summary, n)
		inc := &tree{}
		for i := range leaves {
			leaves[i] = leaf()
			inc.append(leaves[i])
		}
		restored := make([]Summary, n)
		copy(restored, leaves)
		ix, err := NewIndexFromLeaves(1, m, [][]Summary{restored})
		if err != nil {
			t.Fatal(err)
		}
		built := ix.rows[0]
		if !sameTree(built, inc) {
			t.Fatalf("%d leaves: bottom-up levels differ from incremental appends", n)
		}
		for lv, level := range built.levels {
			if cap(level) != len(level) {
				t.Fatalf("%d leaves: level %d has cap %d for %d nodes", n, lv, cap(level), len(level))
			}
		}
		if cap(built.levels) != len(built.levels) {
			t.Fatalf("%d leaves: %d levels allocated for %d", n, cap(built.levels), len(built.levels))
		}
		for k := 0; k < 3; k++ {
			s := leaf()
			built.append(s)
			inc.append(s)
		}
		if !sameTree(built, inc) {
			t.Fatalf("%d leaves: levels diverge after further appends", n)
		}
	}
}

// TestMergeMatchesMathMinMax pins Merge's Min, Max and BoundMax to
// math.Min and math.Max bit for bit, on the operands where the builtin min
// and max differ from them too: NaNs of either sign and any payload, alone
// or beside ±Inf, and zeros of either sign.
func TestMergeMatchesMathMinMax(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, math.SmallestNonzeroFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff8000000000000),
	}
	same := func(got, want float64) bool { return math.Float64bits(got) == math.Float64bits(want) }
	for _, x := range vals {
		for _, y := range vals {
			got := Merge(Summary{Count: 1, Min: x, Max: x, BoundMax: x}, Summary{Count: 2, Min: y, Max: y, BoundMax: y})
			if !same(got.Min, math.Min(x, y)) || !same(got.Max, math.Max(x, y)) || !same(got.BoundMax, math.Max(x, y)) {
				t.Errorf("Merge of %#x and %#x: min %#x max %#x bound %#x, want %#x %#x %#x",
					math.Float64bits(x), math.Float64bits(y),
					math.Float64bits(got.Min), math.Float64bits(got.Max), math.Float64bits(got.BoundMax),
					math.Float64bits(math.Min(x, y)), math.Float64bits(math.Max(x, y)), math.Float64bits(math.Max(x, y)))
			}
		}
	}
}

// TestNewIndexFromLeavesSharedBlock builds an index over several rows
// whose leaves share one allocation, as a restart's facts lay them out,
// and whose upper levels share another: appends to one row's levels must
// never write into another row's, every row keeps matching its
// incremental twin, and the first append moves every upper level out of
// the shared block, so nothing keeps it allocated.
func TestNewIndexFromLeavesSharedBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, m, chunks = 3, 4, 37
	block := make([]Summary, n*chunks)
	leaves := make([][]Summary, n)
	inc := make([]*tree, n)
	for row := range leaves {
		leaves[row] = block[row*chunks : (row+1)*chunks : (row+1)*chunks]
		inc[row] = &tree{}
		for i := range leaves[row] {
			leaves[row][i] = Leaf(m, rng.NormFloat64(), -rng.Float64(), rng.Float64(), rng.Float64())
			inc[row].append(leaves[row][i])
		}
	}
	ix, err := NewIndexFromLeaves(n, m, leaves)
	if err != nil {
		t.Fatal(err)
	}
	built := make([][]*Summary, n) // each row's upper levels, as built
	for row, tr := range ix.rows {
		for _, level := range tr.levels[1:] {
			built[row] = append(built[row], &level[0])
		}
	}
	for k := 0; k < 70; k++ {
		for row := range inc {
			s := Leaf(m, rng.NormFloat64(), -rng.Float64(), rng.Float64(), rng.Float64())
			ix.rows[row].append(s)
			inc[row].append(s)
		}
		if k == 0 {
			for row, tr := range ix.rows {
				for lv, first := range built[row] {
					if &tr.levels[lv+1][0] == first {
						t.Fatalf("row %d level %d still lies in the shared block after an append", row, lv+1)
					}
				}
			}
		}
		for row := range inc {
			if !sameTree(ix.rows[row], inc[row]) {
				t.Fatalf("after %d appends to every row, row %d differs from its incremental twin", k+1, row)
			}
		}
	}
}
