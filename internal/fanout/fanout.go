// Package fanout runs independent tasks on a bounded set of goroutines:
// the one worker pool behind the station's restart (segment files read,
// sensors restored and replayed) and the archive's multi-segment cold
// reads.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Run calls task(w, i) once for every i in [0, n), from at most width
// goroutines, and returns when every call has. w, in [0, width), names the
// goroutine making the call, so a task may reuse scratch space kept per
// goroutine; tasks are handed out in index order as goroutines come free.
// With width or n at most 1 every call runs inline, in index order, on the
// caller's goroutine; otherwise the caller is goroutine 0 and width−1
// more are started. Tasks must not depend on one another's order.
func Run(n, width int, task func(w, i int)) {
	width = min(width, n)
	if width <= 1 {
		for i := 0; i < n; i++ {
			task(0, i)
		}
		return
	}
	var next atomic.Int64
	work := func(w int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			task(w, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(width - 1)
	for w := 1; w < width; w++ {
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
}
