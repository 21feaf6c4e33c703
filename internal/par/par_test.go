package par

import (
	"sync/atomic"
	"testing"
)

// TestEachCoversEveryIndexOnce runs more workers than indices and fewer:
// every index is visited exactly once, every worker gets its own number.
func TestEachCoversEveryIndexOnce(t *testing.T) {
	for _, shape := range [][2]int{{1, 0}, {8, 3}, {3, 1000}} {
		workers, n := shape[0], shape[1]
		hits := make([]atomic.Int32, n)
		made := make([]atomic.Int32, workers)
		Each(workers, n, func(w int) func(int) {
			made[w].Add(1)
			return func(i int) { hits[i].Add(1) }
		})
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Errorf("%d workers, %d indices: index %d visited %d times", workers, n, i, c)
			}
		}
		for w := range made {
			if c := made[w].Load(); c != 1 {
				t.Errorf("%d workers, %d indices: worker %d made %d times", workers, n, w, c)
			}
		}
	}
}
