package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// countingIndex is a stub Index whose NewSearcher calls are counted, so
// pool-bounding tests can observe exactly how many searchers exist.
type countingIndex struct {
	created atomic.Int64
}

type stubSearcher struct{}

func (stubSearcher) Distance(s, t graph.VertexID) int64 { return 0 }
func (stubSearcher) DistanceContext(ctx context.Context, s, t graph.VertexID) (int64, error) {
	return 0, nil
}
func (stubSearcher) OpenPath(ctx context.Context, s, t graph.VertexID) (PathIterator, int64, error) {
	it := new(graph.SlicePath)
	it.Reset([]graph.VertexID{s, t})
	return it, 0, nil
}

func (ix *countingIndex) Method() Method { return MethodDijkstra }
func (ix *countingIndex) Distance(s, t graph.VertexID) int64 {
	return 0
}
func (ix *countingIndex) ShortestPath(s, t graph.VertexID) ([]graph.VertexID, int64) {
	return []graph.VertexID{s, t}, 0
}
func (ix *countingIndex) NewSearcher() Searcher {
	ix.created.Add(1)
	return stubSearcher{}
}
func (ix *countingIndex) Stats() Stats { return Stats{Method: MethodDijkstra} }

// TestPoolBoundedNeverExceedsCap hammers a bounded pool from many
// goroutines and checks the cap is a hard bound on created searchers.
func TestPoolBoundedNeverExceedsCap(t *testing.T) {
	ix := &countingIndex{}
	const maxLive = 4
	pool := NewPool(ix, WithMaxSearchers(maxLive))
	if pool.MaxSearchers() != maxLive {
		t.Fatalf("MaxSearchers = %d, want %d", pool.MaxSearchers(), maxLive)
	}
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sr := pool.Get()
				_ = sr.Distance(0, 1)
				pool.Put(sr)
			}
		}()
	}
	wg.Wait()
	if n := ix.created.Load(); n > maxLive {
		t.Fatalf("bounded pool created %d searchers, cap %d", n, maxLive)
	}
}

// TestPoolBoundedGetBlocks checks that Get blocks when every searcher is
// checked out and resumes when one is returned.
func TestPoolBoundedGetBlocks(t *testing.T) {
	ix := &countingIndex{}
	pool := NewPool(ix, WithMaxSearchers(1))
	sr := pool.Get()
	obtained := make(chan Searcher)
	go func() { obtained <- pool.Get() }()
	select {
	case <-obtained:
		t.Fatal("Get returned while the only searcher was checked out")
	case <-time.After(20 * time.Millisecond):
	}
	pool.Put(sr)
	select {
	case sr2 := <-obtained:
		pool.Put(sr2)
	case <-time.After(2 * time.Second):
		t.Fatal("Get did not resume after Put")
	}
	if n := ix.created.Load(); n != 1 {
		t.Fatalf("created %d searchers, want 1", n)
	}
}

// TestPoolBoundedGetContextAborts checks that the wait for a free searcher
// on an exhausted bounded pool honors the context: a request whose client
// is gone stops queueing instead of parking behind live requests.
func TestPoolBoundedGetContextAborts(t *testing.T) {
	ix := &countingIndex{}
	pool := NewPool(ix, WithMaxSearchers(1))
	sr := pool.Get()

	expired, cancelExpired := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelExpired()
	if _, err := pool.GetContext(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("GetContext on exhausted pool: err = %v, want context.DeadlineExceeded", err)
	}

	cancelled, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	if _, err := pool.DistanceContext(cancelled, 0, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("DistanceContext on exhausted pool: err = %v, want context.Canceled", err)
	}

	pool.Put(sr)
	sr2, err := pool.GetContext(context.Background())
	if err != nil {
		t.Fatalf("GetContext after Put: %v", err)
	}
	pool.Put(sr2)
	if n := ix.created.Load(); n != 1 {
		t.Fatalf("created %d searchers, want 1 (aborted waits must not leak slots)", n)
	}
}

// TestPoolPrewarm checks that Prewarm builds searchers ahead of time, is
// clamped to the cap of a bounded pool, and that warmed searchers are
// reused rather than recreated.
func TestPoolPrewarm(t *testing.T) {
	ix := &countingIndex{}
	pool := NewPool(ix, WithMaxSearchers(4))
	if n := pool.Prewarm(8); n != 4 {
		t.Fatalf("Prewarm(8) on cap-4 pool = %d, want 4", n)
	}
	if n := ix.created.Load(); n != 4 {
		t.Fatalf("created %d searchers after prewarm, want 4", n)
	}
	for i := 0; i < 10; i++ {
		sr := pool.Get()
		pool.Put(sr)
	}
	if n := ix.created.Load(); n != 4 {
		t.Fatalf("created %d searchers after reuse, want 4 (warmed searchers must be reused)", n)
	}

	unbounded := &countingIndex{}
	pool2 := NewPool(unbounded)
	if n := pool2.Prewarm(5); n != 5 {
		t.Fatalf("Prewarm(5) on unbounded pool = %d, want 5", n)
	}
	if n := unbounded.created.Load(); n != 5 {
		t.Fatalf("unbounded pool created %d searchers during prewarm, want 5", n)
	}
}

// TestPoolBoundedServesExactAnswers runs a real index behind a bounded,
// pre-warmed pool under concurrency and checks answers against the oracle.
func TestPoolBoundedServesExactAnswers(t *testing.T) {
	g := testutil.SmallRoad(900, 951)
	ix, err := BuildIndex(MethodCH, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(ix, WithMaxSearchers(3))
	pool.Prewarm(3)
	pairs := testutil.SamplePairs(g, 16, 673)
	want := oracleDistances(g, pairs)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every query checks a searcher out and back in, maximizing
			// contention on the bounded pool.
			checkPooled(g, pool, pairs, want, errs)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
