package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"roadnet/internal/core"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
)

// The response structs every answer was encoded from, by json.Encoder,
// before the append writer. They are the writer's reference: the bytes of
// each shape must equal their encoding.

type routeResponse struct {
	From      graph.VertexID   `json:"from"`
	To        graph.VertexID   `json:"to"`
	Reachable bool             `json:"reachable"`
	Distance  int64            `json:"distance"`
	Vertices  []graph.VertexID `json:"vertices,omitempty"`
	Coords    [][2]int32       `json:"coords,omitempty"`
}

type batchDistanceResponse struct {
	Sources   []graph.VertexID `json:"sources"`
	Targets   []graph.VertexID `json:"targets"`
	Distances [][]int64        `json:"distances"`
}

type nearestResponse struct {
	Vertex graph.VertexID `json:"vertex"`
	X      int32          `json:"x"`
	Y      int32          `json:"y"`
}

type statsResponse struct {
	Method      string `json:"method"`
	Vertices    int    `json:"vertices"`
	Edges       int    `json:"edges"`
	IndexBytes  int64  `json:"index_bytes"`
	BuildMillis int64  `json:"build_millis"`
}

type knnResponse struct {
	Source    graph.VertexID  `json:"source"`
	K         int             `json:"k"`
	Neighbors []core.Neighbor `json:"neighbors"`
}

type withinResponse struct {
	Source    graph.VertexID  `json:"source"`
	Radius    int64           `json:"radius"`
	Count     int             `json:"count"`
	Truncated bool            `json:"truncated"`
	Neighbors []core.Neighbor `json:"neighbors"`
}

type healthzResponse struct {
	OK bool `json:"ok"`
}

type readyzResponse struct {
	Ready    bool   `json:"ready"`
	Draining bool   `json:"draining,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	Verified bool   `json:"verified,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

type truncatedLine struct {
	Truncated bool   `json:"truncated"`
	Error     string `json:"error"`
}

// encoded is v as json.Encoder.Encode writes it.
func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sent is the body send writes for a document appended into b.
func sent(b []byte) []byte {
	rec := httptest.NewRecorder()
	new(reply).send(rec, http.StatusOK, b)
	return rec.Body.Bytes()
}

// chunkWriter records the size of every Write it is handed.
type chunkWriter struct {
	*httptest.ResponseRecorder
	sizes []int
}

func (c *chunkWriter) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return c.ResponseRecorder.Write(p)
}

// streamDistances answers a batch distance document through the stream,
// as batchDistance does, and returns what reached the writer.
func streamDistances(sources, targets []graph.VertexID, table [][]int64) *chunkWriter {
	cw := &chunkWriter{ResponseRecorder: httptest.NewRecorder()}
	st := new(Server).newStream(&responseWriter{ResponseWriter: cw},
		httptest.NewRequest(http.MethodPost, "/v1/batch/distance", nil), `,"distances":[`,
		batchQuery{sources, targets})
	for i, row := range table {
		st.row(i, row)
	}
	st.end()
	return cw
}

// FuzzResponseBytes is the differential oracle of the writer: fuzzer-chosen
// integers, flags and strings (error messages and readiness reasons with
// HTML characters, control bytes, invalid UTF-8, U+2028) go into every
// response shape, and the bytes sent must equal json.Encoder's for the
// reference structs above. The seeds of testdata/fuzz/FuzzResponseBytes
// carry every error message of the golden response table.
func FuzzResponseBytes(f *testing.F) {
	f.Add(int64(3), int64(977), int64(1234), int64(0b1011), "no such vertex", []byte{0, 1, 2})
	f.Add(int64(-1), int64(math.MaxInt32+1), int64(math.MinInt64), int64(-1),
		"<a href=\"x\">&amp;</a>\x00\x1f\x7f\xff\xfe\xe2\x80\xa8\xe2\x80\xa9 \t\n\r\b\f\\", []byte{})
	f.Fuzz(func(t *testing.T, a, b, c, flags int64, s string, raw []byte) {
		check := func(shape string, got []byte, ref any) {
			t.Helper()
			if want := encoded(t, ref); !bytes.Equal(got, want) {
				t.Fatalf("%s:\n got %q\nwant %q", shape, got, want)
			}
		}
		flag := func(bit uint) bool { return flags&(1<<bit) != 0 }
		q := pairQuery{graph.VertexID(a), graph.VertexID(b)}
		reachable := flag(0)
		dist := int64(0)
		if reachable {
			dist = c
		}

		check("distance", sent(append(appendPair(nil, q, reachable, c), '}')),
			routeResponse{From: q.from, To: q.to, Reachable: reachable, Distance: dist})

		bd := graph.NewBuilder(4)
		for _, p := range []geom.Point{{X: int32(a), Y: int32(b)}, {X: int32(b), Y: int32(c)},
			{X: int32(c), Y: int32(a)}, {X: math.MinInt32, Y: math.MaxInt32}} {
			bd.AddVertex(p)
		}
		g := bd.Build()
		route := routeResponse{From: q.from, To: q.to, Reachable: reachable, Distance: dist}
		var it graph.PathIterator
		if reachable {
			path := make([]graph.VertexID, len(raw))
			for i, x := range raw {
				path[i] = graph.VertexID(x % 4)
				p := g.Coord(path[i])
				route.Vertices = append(route.Vertices, path[i])
				route.Coords = append(route.Coords, [2]int32{p.X, p.Y})
			}
			sp := new(graph.SlicePath)
			sp.Reset(path)
			it = sp
		}
		got, err := appendRoute(nil, g, q, it, c)
		if err != nil {
			t.Fatal(err)
		}
		check("route", sent(got), route)

		at := geom.Point{X: int32(b), Y: int32(c)}
		check("nearest", sent(appendNearest(nil, graph.VertexID(a), at)),
			nearestResponse{Vertex: graph.VertexID(a), X: at.X, Y: at.Y})

		check("stats", sent(appendStats(nil, s, int(a), int(b), c, a^c)),
			statsResponse{Method: s, Vertices: int(a), Edges: int(b), IndexBytes: c, BuildMillis: a ^ c})

		var nbs []core.Neighbor
		for i, x := range raw {
			nbs = append(nbs, core.Neighbor{V: graph.VertexID(a) + graph.VertexID(x), Dist: c - int64(i)})
		}
		refNbs := nbs
		if refNbs == nil {
			refNbs = []core.Neighbor{}
		}
		check("knn", sent(appendKNN(nil, graph.VertexID(a), int(b), nbs)),
			knnResponse{Source: graph.VertexID(a), K: int(b), Neighbors: refNbs})
		check("within", sent(appendWithin(nil, graph.VertexID(a), c, flag(1), nbs)),
			withinResponse{Source: graph.VertexID(a), Radius: c, Count: len(nbs), Truncated: flag(1), Neighbors: refNbs})

		rec := httptest.NewRecorder()
		new(Server).handleHealthz(rec, nil)
		check("healthz", rec.Body.Bytes(), healthzResponse{OK: true})

		ready := readyzResponse{Ready: !flag(2), Draining: flag(2), Degraded: flag(3), Verified: flag(4), Reason: s}
		check("readyz", sent(appendReadyz(nil, ready.Draining, ready.Degraded, ready.Verified, s)), ready)

		rec = httptest.NewRecorder()
		sendError(rec, http.StatusBadRequest, s)
		check("error", rec.Body.Bytes(), errorResponse{s})
		if rec.Code != http.StatusBadRequest || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("error: status %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
		}

		// A committed NDJSON stream ends with the marker line.
		rec = httptest.NewRecorder()
		st := &stream{reply: newReply(), w: &responseWriter{ResponseWriter: rec, status: http.StatusOK}, lines: true}
		if err := st.fail(errors.New(s), 0); err != nil {
			t.Fatal(err)
		}
		check("truncated", rec.Body.Bytes(), truncatedLine{true, s})

		sources := make([]graph.VertexID, 0, len(raw))
		for _, x := range raw {
			sources = append(sources, graph.VertexID(x)*graph.VertexID(a))
		}
		targets := sources[:len(sources)/2]
		table := make([][]int64, len(sources))
		ref := batchDistanceResponse{Sources: sources, Targets: targets, Distances: make([][]int64, len(sources))}
		for i := range table {
			table[i] = make([]int64, len(targets))
			ref.Distances[i] = make([]int64, len(targets))
			for j := range targets {
				table[i][j], ref.Distances[i][j] = c^int64(i*j), c^int64(i*j)
				if flag(5) && (i+j)%3 == 0 {
					table[i][j], ref.Distances[i][j] = graph.Infinity+c&1, -1
				}
			}
		}
		check("batch distance", streamDistances(sources, targets, table).Body.Bytes(), ref)
	})
}

// TestStreamSpillsInChunks pins the framing of a stream larger than its
// buffer: the bytes equal the reference document, and every Write but the
// last carries exactly streamBufSize bytes, as a bufio.Writer of that size
// would hand them on.
func TestStreamSpillsInChunks(t *testing.T) {
	sources := make([]graph.VertexID, 5000)
	for i := range sources {
		sources[i] = graph.VertexID(i * 7919)
	}
	targets := sources[:7]
	table := make([][]int64, len(sources))
	for i := range table {
		table[i] = make([]int64, len(targets))
		for j := range targets {
			table[i][j] = int64(i*j) * 104729
		}
	}
	cw := streamDistances(sources, targets, table)
	want := encoded(t, batchDistanceResponse{Sources: sources, Targets: targets, Distances: table})
	if !bytes.Equal(cw.Body.Bytes(), want) {
		t.Fatal("spilled document differs from its json.Encoder encoding")
	}
	if len(cw.sizes) < 3 {
		t.Fatalf("%d bytes went out in %d writes; the test wants at least two spills", len(want), len(cw.sizes))
	}
	for i, n := range cw.sizes[:len(cw.sizes)-1] {
		if n != streamBufSize {
			t.Fatalf("write %d of %d carried %d bytes, want %d", i, len(cw.sizes), n, streamBufSize)
		}
	}
}

// FuzzQueryGet is the differential oracle of the query-string scan: for
// any raw query and key, params.get answers the first value url.ParseQuery
// gives the key, or "". The seeds of testdata/fuzz/FuzzQueryGet are the
// golden response table's queries.
func FuzzQueryGet(f *testing.F) {
	f.Add("from=1&to=2", "to")
	f.Add("a=1;b=2&a=3&%zz=4&a=5", "a")
	f.Add("from+x=%20y&from%2Bx=z", "from x")
	f.Fuzz(func(t *testing.T, raw, key string) {
		values, _ := url.ParseQuery(raw)
		if got, want := params(raw).get(key), values.Get(key); got != want {
			t.Fatalf("params(%q).get(%q) = %q, url.ParseQuery gives %q", raw, key, got, want)
		}
	})
}
