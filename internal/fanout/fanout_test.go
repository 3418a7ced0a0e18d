package fanout

import (
	"sync/atomic"
	"testing"
)

// TestRunCallsEveryIndexOnce runs every task exactly once at every width,
// names no goroutine outside [0, width), and at width 1 runs the tasks in
// index order on the caller's goroutine.
func TestRunCallsEveryIndexOnce(t *testing.T) {
	for _, width := range []int{-1, 0, 1, 2, 4, 64} {
		for _, n := range []int{0, 1, 3, 100} {
			calls := make([]atomic.Int32, n)
			var badW atomic.Int32
			var order []int
			Run(n, width, func(w, i int) {
				if w < 0 || w >= max(1, width) {
					badW.Add(1)
				}
				calls[i].Add(1)
				if width <= 1 {
					order = append(order, i)
				}
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("width %d n %d: task %d ran %d times", width, n, i, c)
				}
			}
			if badW.Load() != 0 {
				t.Fatalf("width %d n %d: a task ran on a goroutine outside [0,%d)", width, n, width)
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("width %d: inline task %d ran %dth", width, got, i)
				}
			}
		}
	}
}

// TestRunScratchPerGoroutine: tasks sharing goroutine w's scratch never
// run at once, so per-goroutine buffers need no lock (the race detector
// checks the claim).
func TestRunScratchPerGoroutine(t *testing.T) {
	const width = 4
	scratch := make([][]int, width)
	Run(1000, width, func(w, i int) {
		scratch[w] = append(scratch[w][:0], i, i+1)
		if scratch[w][1] != i+1 {
			t.Errorf("scratch of goroutine %d changed under task %d", w, i)
		}
	})
}
