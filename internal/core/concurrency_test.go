package core

import (
	"fmt"
	"sync"
	"testing"

	"roadnet/internal/dijkstra"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// concurrencyMethods lists every technique under the concurrent-query
// contract: the paper's five plus the ALT and arc-flags extensions.
var concurrencyMethods = []Method{
	MethodDijkstra, MethodCH, MethodTNR, MethodSILC, MethodPCPD,
	MethodALT, MethodArcFlags,
}

// oracleDistances precomputes ground-truth distances for the pairs with a
// sequential Dijkstra.
func oracleDistances(g *graph.Graph, pairs [][2]graph.VertexID) []int64 {
	ctx := dijkstra.NewContext(g)
	want := make([]int64, len(pairs))
	for i, p := range pairs {
		want[i] = ctx.Distance(p[0], p[1])
	}
	return want
}

// querier is the part of Searcher checkQueries asks, which a Pool answers
// too.
type querier interface {
	Distance(s, t graph.VertexID) int64
	ShortestPath(s, t graph.VertexID) ([]graph.VertexID, int64)
}

// checkQueries runs every pair through sr and compares with the oracle;
// the first mismatch is reported on errs.
func checkQueries(g *graph.Graph, sr querier, pairs [][2]graph.VertexID, want []int64, errs chan<- error) {
	for i, p := range pairs {
		if d := sr.Distance(p[0], p[1]); d != want[i] {
			errs <- fmt.Errorf("dist(%d, %d) = %d, want %d", p[0], p[1], d, want[i])
			return
		}
		path, d := sr.ShortestPath(p[0], p[1])
		if d != want[i] {
			errs <- fmt.Errorf("path dist(%d, %d) = %d, want %d", p[0], p[1], d, want[i])
			return
		}
		if want[i] >= graph.Infinity {
			if path != nil {
				errs <- fmt.Errorf("path(%d, %d): non-nil path for unreachable pair", p[0], p[1])
				return
			}
			continue
		}
		if len(path) == 0 || path[0] != p[0] || path[len(path)-1] != p[1] {
			errs <- fmt.Errorf("path(%d, %d): bad endpoints in %v", p[0], p[1], path)
			return
		}
		if w := dijkstra.PathWeight(g, path); w != want[i] {
			errs <- fmt.Errorf("path(%d, %d): edges sum to %d, want %d", p[0], p[1], w, want[i])
			return
		}
	}
	errs <- nil
}

// TestConcurrentSearchers fires concurrent Distance and ShortestPath
// queries from 8 goroutines — each with its own Searcher — against every
// technique and checks all answers against the sequential Dijkstra oracle.
// Run under -race, this is the proof of the searcher-per-goroutine
// contract.
func TestConcurrentSearchers(t *testing.T) {
	g := testutil.SmallRoad(400, 907)
	pairs := testutil.SamplePairs(g, 40, 911)
	want := oracleDistances(g, pairs)
	const workers = 8
	for _, m := range concurrencyMethods {
		t.Run(string(m), func(t *testing.T) {
			idx, err := BuildIndex(m, g, Config{})
			if err != nil {
				t.Fatal(err)
			}
			errs := make(chan error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					checkQueries(g, idx.NewSearcher(), pairs, want, errs)
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestConcurrentPool runs the same oracle check through one shared Pool:
// goroutines check searchers in and out per query batch, so recycled
// searchers must reset cleanly between owners.
func TestConcurrentPool(t *testing.T) {
	g := testutil.SmallRoad(400, 937)
	pairs := testutil.SamplePairs(g, 40, 941)
	want := oracleDistances(g, pairs)
	const workers = 8
	for _, m := range concurrencyMethods {
		t.Run(string(m), func(t *testing.T) {
			idx, err := BuildIndex(m, g, Config{})
			if err != nil {
				t.Fatal(err)
			}
			pool := NewPool(idx)
			errs := make(chan error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, p := range pairs {
						if d := pool.Distance(p[0], p[1]); d != want[i] {
							errs <- fmt.Errorf("pooled dist(%d, %d) = %d, want %d", p[0], p[1], d, want[i])
							return
						}
						if _, d := pool.ShortestPath(p[0], p[1]); d != want[i] {
							errs <- fmt.Errorf("pooled path dist(%d, %d) = %d, want %d", p[0], p[1], d, want[i])
							return
						}
					}
					errs <- nil
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestSearcherReuseMatchesFresh is the searcher-reuse property test: one
// pooled searcher reused across many random queries must return
// bit-identical distances and paths to a searcher constructed fresh for
// each query. This catches stale-generation and missing-reset bugs in the
// gen-counter reuse trick.
func TestSearcherReuseMatchesFresh(t *testing.T) {
	g := testutil.SmallRoad(400, 947)
	pairs := testutil.SamplePairs(g, 120, 953)
	for _, m := range concurrencyMethods {
		t.Run(string(m), func(t *testing.T) {
			idx, err := BuildIndex(m, g, Config{})
			if err != nil {
				t.Fatal(err)
			}
			pool := NewPool(idx)
			reused := pool.Get() // stays checked out for the whole run
			for _, p := range pairs {
				fresh := idx.NewSearcher()
				wantD := fresh.Distance(p[0], p[1])
				if gotD := reused.Distance(p[0], p[1]); gotD != wantD {
					t.Fatalf("reused dist(%d, %d) = %d, fresh = %d", p[0], p[1], gotD, wantD)
				}
				wantPath, wantPD := fresh.ShortestPath(p[0], p[1])
				gotPath, gotPD := reused.ShortestPath(p[0], p[1])
				if gotPD != wantPD {
					t.Fatalf("reused path dist(%d, %d) = %d, fresh = %d", p[0], p[1], gotPD, wantPD)
				}
				if len(gotPath) != len(wantPath) {
					t.Fatalf("reused path(%d, %d) = %v, fresh = %v", p[0], p[1], gotPath, wantPath)
				}
				for i := range gotPath {
					if gotPath[i] != wantPath[i] {
						t.Fatalf("reused path(%d, %d) = %v, fresh = %v", p[0], p[1], gotPath, wantPath)
					}
				}
			}
			pool.Put(reused)
		})
	}
}

// TestPoolRecyclesSearchers checks the steady-state behaviour the server
// relies on: sequential Get/Put cycles reuse the same searcher instead of
// constructing new ones.
func TestPoolRecyclesSearchers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes recycling under the race detector")
	}
	g := testutil.SmallRoad(400, 967)
	idx, err := BuildIndex(MethodCH, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(idx)
	s1 := pool.Get()
	pool.Put(s1)
	recycled := false
	// sync.Pool gives no hard guarantee on any single cycle; a handful of
	// attempts makes a miss vanishingly unlikely without GC pressure.
	for i := 0; i < 100 && !recycled; i++ {
		s2 := pool.Get()
		recycled = s2 == s1
		pool.Put(s2)
	}
	if !recycled {
		t.Error("pool never recycled a returned searcher across 100 Get/Put cycles")
	}
}
