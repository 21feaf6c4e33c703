// Package par holds the one work-distribution loop the preprocessing stages
// share.
package par

import (
	"sync"
	"sync/atomic"
)

// Each calls fn(i) for every i in [0, n) from workers goroutines and
// returns when all calls have; mk(w) makes the fn of goroutine w in [0,
// workers), so that fn can own scratch. Indices are handed out in order
// from one atomic counter.
func Each(workers, n int, mk func(w int) func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := mk(w)
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
