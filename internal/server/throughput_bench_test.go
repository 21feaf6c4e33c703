package server_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"roadnet/internal/core"
	"roadnet/internal/graph"
	"roadnet/internal/metrics"
	"roadnet/internal/server"
	"roadnet/internal/testutil"
)

// benchHandler builds a CH-backed server over a mid-size network and
// pre-renders distance request URLs, so the benchmark loop measures request
// handling rather than setup.
func benchHandler(b *testing.B) (http.Handler, []string) {
	b.Helper()
	g := testutil.SmallRoad(2000, 41)
	idx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	pairs := testutil.SamplePairs(g, 256, 43)
	urls := make([]string, len(pairs))
	for i, p := range pairs {
		urls[i] = fmt.Sprintf("/v1/distance?from=%d&to=%d", p[0], p[1])
	}
	return server.New(g, idx).Handler(), urls
}

func driveParallel(b *testing.B, h http.Handler, urls []string) {
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			u := urls[int(next.Add(1))%len(urls)]
			req := httptest.NewRequest(http.MethodGet, u, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("GET %s: status %d", u, rec.Code)
			}
		}
	})
}

// BenchmarkServerThroughput measures concurrent distance queries per second
// against the pooled, mutex-free server. Compare with
// BenchmarkServerThroughputSerialized (the seed's global-mutex design) at
// -cpu 4 or higher; the pooled server should scale near-linearly with
// cores while the serialized one stays flat.
func BenchmarkServerThroughput(b *testing.B) {
	h, urls := benchHandler(b)
	driveParallel(b, h, urls)
}

// BenchmarkServerThroughputSerialized reproduces the pre-pool design for
// comparison: the same handler behind one global query mutex, the way the
// server serialized all index access before searcher pools existed.
func BenchmarkServerThroughputSerialized(b *testing.B) {
	h, urls := benchHandler(b)
	var mu sync.Mutex
	serialized := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		h.ServeHTTP(w, r)
	})
	driveParallel(b, serialized, urls)
}

// BenchmarkBatchDistance measures the batch endpoint: one POST answering a
// 16 x 16 distance matrix through the CH many-to-many accelerator.
func BenchmarkBatchDistance(b *testing.B) {
	g := testutil.SmallRoad(2000, 41)
	idx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	h := server.New(g, idx).Handler()
	var sources, targets []graph.VertexID
	for _, p := range testutil.SamplePairs(g, 16, 47) {
		sources = append(sources, p[0])
		targets = append(targets, p[1])
	}
	body := batchBody(sources, targets)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/v1/batch/distance", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("batch: status %d", rec.Code)
			}
		}
	})
}

// BenchmarkRouteHandler measures one in-process /v1/route by coordinates,
// metrics on as spserve serves it: two R-tree snaps, the CH search, shortcut
// unpacking and the append writer, without sockets — the handler's share
// of a served route, reproducible with go test -bench.
func BenchmarkRouteHandler(b *testing.B) {
	g := testutil.SmallRoad(2000, 41)
	idx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	h := server.New(g, idx, server.WithMetrics(metrics.NewRegistry())).Handler()
	pairs := testutil.SamplePairs(g, 256, 43)
	reqs := make([]*http.Request, len(pairs))
	for i, p := range pairs {
		from, to := g.Coord(p[0]), g.Coord(p[1])
		reqs[i] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/route?from_x=%d&from_y=%d&to_x=%d&to_y=%d",
			from.X, from.Y, to.X, to.Y), nil)
		rec := httptest.NewRecorder()
		if h.ServeHTTP(rec, reqs[i]); rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d", reqs[i].URL, rec.Code)
		}
	}
	w := &discardResponse{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, reqs[i%len(reqs)])
	}
}
