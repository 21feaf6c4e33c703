package core_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"roadnet/internal/chaos"
	"roadnet/internal/core"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
	"roadnet/internal/tnr"
)

// drain collects an OpenPath result into a slice, or nil for unreachable.
func drain(t *testing.T, it graph.PathIterator, err error) []graph.VertexID {
	t.Helper()
	if err != nil {
		t.Fatalf("OpenPath: %v", err)
	}
	if it == nil {
		return nil
	}
	path, err := graph.AppendPath(nil, it)
	if err != nil {
		t.Fatalf("stream aborted: %v", err)
	}
	return path
}

// streamConfig is one index configuration of the streaming tests; build
// makes its index.
type streamConfig struct {
	method core.Method
	cfg    core.Config
	// flaky wraps the index in the fault injector, armed with nothing: its
	// searchers stand between the caller and OpenPath.
	flaky bool
}

func (tc streamConfig) build(g *graph.Graph) (core.Index, error) {
	ix, err := core.BuildIndex(tc.method, g, tc.cfg)
	if err == nil && tc.flaky {
		ix = chaos.Wrap(ix)
	}
	return ix, err
}

// streamConfigs lists every index configuration with a distinct path
// pipeline: the seven methods and a CH index behind the fault injector.
func streamConfigs() map[string]streamConfig {
	return map[string]streamConfig{
		"ch-flaky": {method: core.MethodCH, flaky: true},
		"dijkstra": {method: core.MethodDijkstra},
		"ch":       {method: core.MethodCH},
		"tnr":      {method: core.MethodTNR, cfg: core.Config{TNR: tnr.Options{GridSize: 8}}},
		"silc":     {method: core.MethodSILC},
		"pcpd":     {method: core.MethodPCPD},
		"alt":      {method: core.MethodALT},
		"arcflags": {method: core.MethodArcFlags},
	}
}

// TestOpenPathBitIdenticalToShortestPath is the streaming oracle: for every
// technique, draining a fresh searcher's iterator must reproduce the Index.ShortestPath answer
// vertex for vertex, including the trivial from == to path.
func TestOpenPathBitIdenticalToShortestPath(t *testing.T) {
	g := testutil.SmallRoad(400, 601)
	pairs := testutil.SamplePairs(g, 120, 613)
	pairs = append(pairs, [2]graph.VertexID{7, 7}, [2]graph.VertexID{0, 0})
	ctx := context.Background()
	for name, tc := range streamConfigs() {
		t.Run(name, func(t *testing.T) {
			ix, err := tc.build(g)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			srStream := ix.NewSearcher()
			for _, p := range pairs {
				s, tt := p[0], p[1]
				it, dStream, err := srStream.OpenPath(ctx, s, tt)
				streamed := drain(t, it, err)
				want, dWant := ix.ShortestPath(s, tt)
				if dStream != dWant {
					t.Fatalf("dist(%d, %d): streamed %d, materialized %d", s, tt, dStream, dWant)
				}
				if len(streamed) != len(want) {
					t.Fatalf("path(%d, %d): streamed %d vertices, materialized %d\nstreamed: %v\nmaterialized: %v",
						s, tt, len(streamed), len(want), streamed, want)
				}
				for i := range want {
					if streamed[i] != want[i] {
						t.Fatalf("path(%d, %d): vertex %d differs: streamed %d, materialized %d",
							s, tt, i, streamed[i], want[i])
					}
				}
			}
		})
	}
}

// TestOpenPathUnreachable checks the (nil, Infinity, nil) contract on a
// disconnected graph for every technique that builds on one.
func TestOpenPathUnreachable(t *testing.T) {
	b := graph.NewBuilder(4)
	for i := 0; i < 4; i++ {
		b.AddVertex(geom.Point{X: int32(i), Y: int32(i % 2)})
	}
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	ctx := context.Background()
	for name, tc := range streamConfigs() {
		t.Run(name, func(t *testing.T) {
			ix, err := tc.build(g)
			if err != nil {
				t.Skipf("method does not build on a disconnected graph: %v", err)
			}
			sr := ix.NewSearcher()
			it, d, err := sr.OpenPath(ctx, 0, 3)
			if err != nil {
				t.Fatalf("OpenPath: %v", err)
			}
			if it != nil || d < graph.Infinity {
				t.Errorf("unreachable pair: it = %v, d = %d; want nil iterator and Infinity", it, d)
			}
			// The searcher must remain usable after the unreachable answer.
			it, d, err = sr.OpenPath(ctx, 0, 1)
			if path := drain(t, it, err); len(path) != 2 || d != 1 {
				t.Errorf("follow-up path = %v dist %d, want [0 1] dist 1", path, d)
			}
		})
	}
}

// TestOpenPathCancelledBeforeStart checks that an already-cancelled context
// aborts OpenPath itself, per the cancellation contract.
func TestOpenPathCancelledBeforeStart(t *testing.T) {
	g := testutil.SmallRoad(200, 617)
	cctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	for name, tc := range streamConfigs() {
		t.Run(name, func(t *testing.T) {
			ix, err := tc.build(g)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			it, _, err := ix.NewSearcher().OpenPath(cctx, 0, graph.VertexID(g.NumVertices()-1))
			if err == nil {
				t.Errorf("pre-cancelled OpenPath: it = %v, err = nil; want context error", it)
			}
		})
	}
}

// TestOpenPathMidStreamCancellation cancels while the iterator is being
// drained on a path long enough to cross the polling interval, and expects
// the stream to stop with the context's error rather than run to the end:
// on the two techniques that produce the vertices lazily, CH's shortcut
// unpacking and TNR's table walk. The line graph makes the path length
// (1200 vertices) deterministic.
func TestOpenPathMidStreamCancellation(t *testing.T) {
	const n = 1200
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddVertex(geom.Point{X: int32(i), Y: 0})
	}
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(graph.VertexID(i), graph.VertexID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	for _, method := range []core.Method{core.MethodCH, core.MethodTNR} {
		t.Run(string(method), func(t *testing.T) {
			ix, err := core.BuildIndex(method, g, core.Config{})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			cctx, cancelFn := context.WithCancel(context.Background())
			defer cancelFn()
			it, d, err := ix.NewSearcher().OpenPath(cctx, 0, n-1)
			if err != nil || it == nil {
				t.Fatalf("OpenPath: it = %v, d = %d, err = %v", it, d, err)
			}
			emitted := 0
			for {
				if _, ok := it.Next(); !ok {
					break
				}
				emitted++
				if emitted == 10 {
					cancelFn()
				}
			}
			if it.Err() == nil {
				t.Fatalf("stream of %d vertices completed despite cancellation after 10", emitted)
			}
			if emitted >= n {
				t.Errorf("iterator emitted all %d vertices before noticing cancellation", emitted)
			}
		})
	}
}

// TestOpenPathConcurrentStreaming runs many goroutines streaming through
// per-goroutine searchers over one shared index, under -race. Each
// goroutine checks its streamed paths against Index.ShortestPath's, asked
// before the goroutines start.
func TestOpenPathConcurrentStreaming(t *testing.T) {
	g := testutil.SmallRoad(300, 619)
	pairs := testutil.SamplePairs(g, 40, 631)
	ctx := context.Background()
	for _, method := range []core.Method{core.MethodCH, core.MethodTNR, core.MethodSILC} {
		t.Run(string(method), func(t *testing.T) {
			ix, err := core.BuildIndex(method, g, core.Config{TNR: tnr.Options{GridSize: 8}})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			want := make([][]graph.VertexID, len(pairs))
			for i, p := range pairs {
				want[i], _ = ix.ShortestPath(p[0], p[1])
			}
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sr := ix.NewSearcher()
					for i, p := range pairs {
						it, _, err := sr.OpenPath(ctx, p[0], p[1])
						if err != nil {
							errs <- err
							return
						}
						var streamed []graph.VertexID
						if it != nil {
							if streamed, err = graph.AppendPath(nil, it); err != nil {
								errs <- err
								return
							}
						}
						if !slices.Equal(streamed, want[i]) {
							t.Errorf("pair (%d, %d): streamed %v, Index.ShortestPath %v", p[0], p[1], streamed, want[i])
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("worker: %v", err)
			}
		})
	}
}
