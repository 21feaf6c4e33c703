package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"roadnet/internal/core"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/server"
	"roadnet/internal/testutil"
)

// discardResponse satisfies http.ResponseWriter without retaining the body,
// so the batch-route benchmarks measure the handler's own allocations, not
// a recorder growing a buffer as large as the response.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// benchBatchRouteFixture builds a CH server over a long line graph — every
// requested path is ~lineN vertices, so per-request allocation is dominated
// by path production, the quantity the streamed/materialized comparison is
// about.
const lineN = 4000

func benchBatchRouteFixture(b testing.TB) (core.Index, http.Handler, []graph.VertexID, []graph.VertexID, string) {
	b.Helper()
	bd := graph.NewBuilder(lineN)
	for i := 0; i < lineN; i++ {
		bd.AddVertex(geom.Point{X: int32(i), Y: 0})
	}
	for i := 0; i < lineN-1; i++ {
		if err := bd.AddEdge(graph.VertexID(i), graph.VertexID(i+1), 1); err != nil {
			b.Fatal(err)
		}
	}
	g := bd.Build()
	idx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	sources := []graph.VertexID{0, 1, 2, 3}
	targets := []graph.VertexID{lineN - 4, lineN - 3, lineN - 2, lineN - 1}
	return idx, server.New(g, idx).Handler(), sources, targets, batchBody(sources, targets)
}

// batchRouteStreamed returns one request to the streaming batch-route
// handler: 16 paths of ~4000 vertices each, drained iterator-by-iterator
// through the fixed-size stream buffer.
func batchRouteStreamed(tb testing.TB) func() {
	_, h, _, _, body := benchBatchRouteFixture(tb)
	return func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch/route", strings.NewReader(body))
		w := &discardResponse{h: make(http.Header)}
		h.ServeHTTP(w, req)
	}
}

// batchRouteMaterialized returns the same request answered as the
// pre-streaming handler did: materialize every path of the matrix, then
// encode the whole document in one shot. Allocation grows with total path
// vertices, which is exactly what the streamed handler avoids.
func batchRouteMaterialized(tb testing.TB) func() {
	idx, _, sources, targets, _ := benchBatchRouteFixture(tb)
	type entry struct {
		Reachable bool             `json:"reachable"`
		Distance  int64            `json:"distance"`
		Vertices  []graph.VertexID `json:"vertices,omitempty"`
	}
	sr := idx.NewSearcher()
	ctx := context.Background()
	return func() {
		routes := make([][]entry, len(sources))
		for si, src := range sources {
			row := make([]entry, len(targets))
			for ti, tgt := range targets {
				it, d, err := sr.OpenPath(ctx, src, tgt)
				if err != nil {
					tb.Fatal(err)
				}
				if it != nil {
					path, err := graph.AppendPath(nil, it)
					if err != nil {
						tb.Fatal(err)
					}
					row[ti] = entry{Reachable: true, Distance: d, Vertices: path}
				}
			}
			routes[si] = row
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(struct {
			Sources []graph.VertexID `json:"sources"`
			Targets []graph.VertexID `json:"targets"`
			Routes  [][]entry        `json:"routes"`
		}{sources, targets, routes}); err != nil {
			tb.Fatal(err)
		}
		w := &discardResponse{h: make(http.Header)}
		_, _ = w.Write(buf.Bytes())
	}
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkBatchRouteStreamed(b *testing.B)     { benchOp(b, batchRouteStreamed(b)) }
func BenchmarkBatchRouteMaterialized(b *testing.B) { benchOp(b, batchRouteMaterialized(b)) }

// TestBatchRouteStreamedAllocs is the bounded-residency gate of batch-route
// streaming: over the same long-path matrix a streamed request must
// allocate at least ten times fewer bytes than the materialize-then-encode
// equivalent (about 30 times, measured), or path streaming has regressed
// into buffering whole matrices again. Sizes, not speeds: the ratio does
// not depend on the machine.
func TestBatchRouteStreamedAllocs(t *testing.T) {
	streamed := testutil.AllocBytesPerRun(5, batchRouteStreamed(t))
	materialized := testutil.AllocBytesPerRun(5, batchRouteMaterialized(t))
	t.Logf("streamed %.0f B per request, materialized %.0f B", streamed, materialized)
	if materialized < 10*streamed {
		t.Errorf("a streamed batch route allocates %.0f bytes, the materialized one %.0f: less than 10 times more", streamed, materialized)
	}
}

// BenchmarkBatchRoute measures the full streamed endpoint on a realistic
// road network (short, varied paths), complementing the long-path fixture
// above.
func BenchmarkBatchRoute(b *testing.B) {
	g := testutil.SmallRoad(2000, 41)
	idx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	h := server.New(g, idx).Handler()
	sources, targets := batchEndpoints(g, testutil.SamplePairs(g, 8, 47))
	body := batchBody(sources, targets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch/route", strings.NewReader(body))
		w := &discardResponse{h: make(http.Header)}
		h.ServeHTTP(w, req)
	}
}
