package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// buildAll builds one index per technique over g, sharing the CH hierarchy
// the way the harness does.
func buildAll(t *testing.T, g *graph.Graph) map[Method]Index {
	t.Helper()
	out := make(map[Method]Index, len(concurrencyMethods))
	var cfg Config
	for _, m := range concurrencyMethods {
		ix, err := BuildIndex(m, g, cfg)
		if err != nil {
			t.Fatalf("BuildIndex(%s): %v", m, err)
		}
		if m == MethodCH {
			cfg.Hierarchy = HierarchyOf(ix)
		}
		out[m] = ix
	}
	return out
}

// TestSearcherContextCancelledAllMethods checks the cancellation contract
// on every technique: a query issued on an already-cancelled context (and
// on an already-expired deadline) aborts with the context's error before
// doing any work, and the aborted searcher remains valid for reuse.
func TestSearcherContextCancelledAllMethods(t *testing.T) {
	g := testutil.SmallRoad(900, 951)
	pairs := testutil.SamplePairs(g, 10, 641)
	want := oracleDistances(g, pairs)
	for m, ix := range buildAll(t, g) {
		sr := ix.NewSearcher()

		cancelled, cancelFn := context.WithCancel(context.Background())
		cancelFn()
		if _, err := sr.DistanceContext(cancelled, pairs[0][0], pairs[0][1]); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: DistanceContext on cancelled ctx: err = %v, want context.Canceled", m, err)
		}
		if _, _, err := sr.OpenPath(cancelled, pairs[0][0], pairs[0][1]); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: OpenPath on cancelled ctx: err = %v, want context.Canceled", m, err)
		}
		// Trivial s == t queries are covered by the contract too: no
		// technique's short-circuit may report success on a dead context.
		if _, err := sr.DistanceContext(cancelled, pairs[0][0], pairs[0][0]); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: DistanceContext(s, s) on cancelled ctx: err = %v, want context.Canceled", m, err)
		}
		if _, _, err := sr.OpenPath(cancelled, pairs[0][0], pairs[0][0]); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: OpenPath(s, s) on cancelled ctx: err = %v, want context.Canceled", m, err)
		}

		expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		if _, err := sr.DistanceContext(expired, pairs[0][0], pairs[0][1]); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: DistanceContext past deadline: err = %v, want context.DeadlineExceeded", m, err)
		}
		cancelExpired()

		// An aborted searcher must answer correctly afterwards.
		for i, p := range pairs {
			d, err := sr.DistanceContext(context.Background(), p[0], p[1])
			if err != nil {
				t.Fatalf("%s: DistanceContext after abort: %v", m, err)
			}
			if d != want[i] {
				t.Errorf("%s: dist(%d, %d) = %d after abort, want %d", m, p[0], p[1], d, want[i])
			}
		}
	}
}

// TestPoolContextQueries covers the pool's context convenience and the
// generic (non-accelerated) batch path under cancellation.
func TestPoolContextQueries(t *testing.T) {
	g := testutil.SmallRoad(900, 951)
	ix, err := BuildIndex(MethodDijkstra, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(ix)
	p := testutil.SamplePairs(g, 1, 659)[0]
	if d, err := pool.DistanceContext(context.Background(), p[0], p[1]); err != nil || d != ix.Distance(p[0], p[1]) {
		t.Fatalf("DistanceContext = (%d, %v), want distance %d", d, err, ix.Distance(p[0], p[1]))
	}

	cancelled, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	if _, err := pool.DistanceContext(cancelled, p[0], p[1]); !errors.Is(err, context.Canceled) {
		t.Errorf("pool.DistanceContext on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := pool.BatchDistance(cancelled, []graph.VertexID{p[0]}, []graph.VertexID{p[1]}); !errors.Is(err, context.Canceled) {
		t.Errorf("pool.BatchDistance on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestPoolBatchDistanceMatchesPerPair checks the dispatcher end to end for
// every technique: whatever accelerator serves the batch, the matrix must
// equal per-pair distances.
func TestPoolBatchDistanceMatchesPerPair(t *testing.T) {
	g := testutil.SmallRoad(900, 951)
	var sources, targets []graph.VertexID
	for _, p := range testutil.SamplePairs(g, 8, 661) {
		sources = append(sources, p[0])
		targets = append(targets, p[1])
	}
	for m, ix := range buildAll(t, g) {
		pool := NewPool(ix)
		table, err := pool.BatchDistance(context.Background(), sources, targets)
		if err != nil {
			t.Fatalf("%s: BatchDistance: %v", m, err)
		}
		sr := ix.NewSearcher()
		for i, s := range sources {
			for j, tgt := range targets {
				if want := sr.Distance(s, tgt); table[i][j] != want {
					t.Errorf("%s: batch dist(%d, %d) = %d, per-pair = %d", m, s, tgt, table[i][j], want)
				}
			}
		}
	}
}
