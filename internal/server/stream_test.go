package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"roadnet/internal/core"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/server"
	"roadnet/internal/testutil"
)

// rawBody performs a request and returns the raw response bytes, for tests
// that assert the exact wire shape rather than the decoded value.
func rawBody(t *testing.T, req *http.Request, wantStatus int) []byte {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d (body %s)",
			req.Method, req.URL, resp.StatusCode, wantStatus, body)
	}
	return body
}

func getRaw(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rawBody(t, req, wantStatus)
}

func postRaw(t *testing.T, url, body, accept string, wantStatus int) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	return rawBody(t, req, wantStatus)
}

// TestZeroDistanceJSONShape pins the regression: a from == to query has the
// legitimate distance 0, and the "distance" key must appear in the raw JSON
// of every endpoint that reports one — omitempty on an int64 would silently
// drop exactly that value.
func TestZeroDistanceJSONShape(t *testing.T) {
	ts, _ := newTestServer(t)
	const v = 7

	distance := getRaw(t, fmt.Sprintf("%s/v1/distance?from=%d&to=%d", ts.URL, v, v), http.StatusOK)
	if !bytes.Contains(distance, []byte(`"distance":0`)) {
		t.Errorf("/v1/distance from==to: %s lacks \"distance\":0", distance)
	}

	route := getRaw(t, fmt.Sprintf("%s/v1/route?from=%d&to=%d", ts.URL, v, v), http.StatusOK)
	if !bytes.Contains(route, []byte(`"distance":0`)) {
		t.Errorf("/v1/route from==to: %s lacks \"distance\":0", route)
	}
	if !bytes.Contains(route, []byte(fmt.Sprintf(`"vertices":[%d]`, v))) {
		t.Errorf("/v1/route from==to: %s lacks the single-vertex path", route)
	}

	ids := []graph.VertexID{v}
	batchDist := postRaw(t, ts.URL+"/v1/batch/distance", batchBody(ids, ids), "", http.StatusOK)
	if !bytes.Contains(batchDist, []byte(`"distances":[[0]]`)) {
		t.Errorf("/v1/batch/distance from==to: %s lacks the zero cell", batchDist)
	}

	batchRoute := postRaw(t, ts.URL+"/v1/batch/route", batchBody(ids, ids), "", http.StatusOK)
	if !bytes.Contains(batchRoute, []byte(`"distance":0`)) {
		t.Errorf("/v1/batch/route from==to: %s lacks \"distance\":0", batchRoute)
	}
}

// materializedBatchRoute rebuilds the batch route response the way the
// pre-streaming handler did — materialize every path, then one
// json.Encoder.Encode — and returns its exact bytes. The streamed response
// must be bit-identical to this.
func materializedBatchRoute(t *testing.T, idx core.Index, sources, targets []graph.VertexID) []byte {
	t.Helper()
	type entry struct {
		Reachable bool             `json:"reachable"`
		Distance  int64            `json:"distance"`
		Vertices  []graph.VertexID `json:"vertices,omitempty"`
	}
	resp := struct {
		Sources []graph.VertexID `json:"sources"`
		Targets []graph.VertexID `json:"targets"`
		Routes  [][]entry        `json:"routes"`
	}{Sources: sources, Targets: targets, Routes: make([][]entry, len(sources))}
	for i, src := range sources {
		row := make([]entry, len(targets))
		for j, tgt := range targets {
			if path, d := idx.ShortestPath(src, tgt); path != nil {
				row[j] = entry{Reachable: true, Distance: d, Vertices: path}
			}
		}
		resp.Routes[i] = row
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchRouteStreamedBytesIdentical is the wire-level oracle: for every
// technique, the streamed response must match the materialized encoding
// byte for byte — same field order, same trailing newline, including the
// from == to and long-path cells.
func TestBatchRouteStreamedBytesIdentical(t *testing.T) {
	for _, method := range batchRouteMethods {
		t.Run(string(method), func(t *testing.T) {
			g := testutil.SmallRoad(400, 57)
			idx, err := core.BuildIndex(method, g, core.Config{})
			if err != nil {
				t.Fatalf("BuildIndex(%s): %v", method, err)
			}
			ts := httptest.NewServer(server.New(g, idx).Handler())
			t.Cleanup(ts.Close)
			sources, targets := batchEndpoints(g, testutil.SamplePairs(g, 4, 733))
			sources = append(sources, 11)
			targets = append(targets, 11) // exercises from == to on the diagonal
			got := postRaw(t, ts.URL+"/v1/batch/route", batchBody(sources, targets), "", http.StatusOK)
			want := materializedBatchRoute(t, idx, sources, targets)
			if !bytes.Equal(got, want) {
				t.Fatalf("streamed response differs from materialized encoding\nstreamed:     %s\nmaterialized: %s", got, want)
			}
		})
	}
}

// ndjsonLines splits and JSON-validates an NDJSON body: every line must be
// one well-formed JSON object, whatever else happened to the stream.
func ndjsonLines(t *testing.T, body []byte) []map[string]json.RawMessage {
	t.Helper()
	var lines []map[string]json.RawMessage
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			t.Fatalf("NDJSON stream contains a blank line:\n%s", body)
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("NDJSON line %q is not a JSON object: %v", sc.Text(), err)
		}
		lines = append(lines, obj)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestBatchRouteNDJSON checks the line framing of the streaming mode:
// header line, one cell line per matrix entry (each identical in content to
// the sequential route answer), and the {"done":true} terminator.
func TestBatchRouteNDJSON(t *testing.T) {
	ts, g := newMethodServer(t, core.MethodCH)
	sources, targets := batchEndpoints(g, testutil.SamplePairs(g, 3, 733))
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch/route",
		strings.NewReader(batchBody(sources, targets)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := ndjsonLines(t, body)
	wantLines := 1 + len(sources)*len(targets) + 1
	if len(lines) != wantLines {
		t.Fatalf("NDJSON stream has %d lines, want %d:\n%s", len(lines), wantLines, body)
	}
	if _, ok := lines[0]["sources"]; !ok {
		t.Errorf("header line lacks sources: %s", body)
	}
	if done := string(lines[len(lines)-1]["done"]); done != "true" {
		t.Fatalf("missing {\"done\":true} terminator, got %s", body)
	}
	for n, cell := range lines[1 : len(lines)-1] {
		var i, j int
		if err := json.Unmarshal(cell["i"], &i); err != nil {
			t.Fatalf("cell %d lacks i: %v", n, err)
		}
		if err := json.Unmarshal(cell["j"], &j); err != nil {
			t.Fatalf("cell %d lacks j: %v", n, err)
		}
		if want := [2]int{n / len(targets), n % len(targets)}; i != want[0] || j != want[1] {
			t.Fatalf("cell %d carries indices (%d,%d), want (%d,%d)", n, i, j, want[0], want[1])
		}
		var seq struct {
			Reachable bool
			Distance  int64
			Vertices  []graph.VertexID
		}
		getJSON(t, fmt.Sprintf("%s/v1/route?from=%d&to=%d", ts.URL, sources[i], targets[j]), http.StatusOK, &seq)
		var got struct {
			Reachable bool
			Distance  int64
			Vertices  []graph.VertexID
		}
		line, _ := json.Marshal(cell)
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if got.Reachable != seq.Reachable || got.Distance != seq.Distance ||
			len(got.Vertices) != len(seq.Vertices) {
			t.Errorf("cell (%d,%d) = (%v,%d,%d vertices), sequential route = (%v,%d,%d vertices)",
				i, j, got.Reachable, got.Distance, len(got.Vertices),
				seq.Reachable, seq.Distance, len(seq.Vertices))
		}
		for k := range seq.Vertices {
			if got.Vertices[k] != seq.Vertices[k] {
				t.Fatalf("cell (%d,%d) vertex %d differs from sequential route", i, j, k)
			}
		}
	}
}

// lineGraphServer builds a server over an n-vertex path graph, where every
// 0 -> n-1 route has exactly n vertices — long deterministic paths for the
// budget and truncation tests.
func lineGraphServer(t *testing.T, n int, opts ...server.Option) *httptest.Server {
	t.Helper()
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
	idx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(g, idx, opts...).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestBatchRouteVertexBudgetJSON: in JSON mode a response that would blow
// the vertex budget before anything was flushed is answered with a clean
// 413, not a truncated document.
func TestBatchRouteVertexBudgetJSON(t *testing.T) {
	ts := lineGraphServer(t, 100, server.WithBatchRouteVertexBudget(150))
	body := `{"sources":[0,0],"targets":[99]}` // two 100-vertex paths > 150
	raw := postRaw(t, ts.URL+"/v1/batch/route", body, "", http.StatusRequestEntityTooLarge)
	if !bytes.Contains(raw, []byte("vertex budget")) {
		t.Errorf("413 body %s does not mention the vertex budget", raw)
	}
	// Within budget the same request shape succeeds.
	var ok batchRouteResponse
	postJSON(t, ts.URL+"/v1/batch/route", `{"sources":[0],"targets":[99]}`, http.StatusOK, &ok)
	if len(ok.Routes) != 1 || len(ok.Routes[0][0].Vertices) != 100 {
		t.Fatalf("in-budget request: %+v", ok)
	}
}

// TestBatchRouteVertexBudgetNDJSONTruncation: once NDJSON rows are on the
// wire, budget exhaustion must truncate in-band — the open cell closes with
// "truncated":true and a final marker line reports the cause, every line
// still valid JSON.
func TestBatchRouteVertexBudgetNDJSONTruncation(t *testing.T) {
	ts := lineGraphServer(t, 100, server.WithBatchRouteVertexBudget(150))
	// Row 1 (100 vertices) fits and is flushed; row 2 exhausts the budget.
	body := `{"sources":[0,0,0],"targets":[99]}`
	raw := postRaw(t, ts.URL+"/v1/batch/route", body, "application/x-ndjson", http.StatusOK)
	lines := ndjsonLines(t, raw)
	last := lines[len(lines)-1]
	if string(last["truncated"]) != "true" {
		t.Fatalf("stream does not end with a truncation marker:\n%s", raw)
	}
	var msg string
	if err := json.Unmarshal(last["error"], &msg); err != nil || !strings.Contains(msg, "vertex budget") {
		t.Errorf("marker error = %q, want a vertex-budget message", msg)
	}
	cut := lines[len(lines)-2]
	if string(cut["truncated"]) != "true" {
		t.Errorf("interrupted cell lacks \"truncated\":true:\n%s", raw)
	}
	if _, ok := lines[len(lines)-2]["done"]; ok {
		t.Errorf("truncated stream must not claim done:\n%s", raw)
	}
}

// cancelOnFlush cancels the request context the moment the first byte
// reaches the wire, deterministically forcing a mid-stream abort.
type cancelOnFlush struct {
	http.ResponseWriter
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelOnFlush) Write(p []byte) (int, error) {
	c.once.Do(c.cancel)
	return c.ResponseWriter.Write(p)
}

// TestBatchRouteNDJSONMidStreamCancellation kills the request context after
// the first row is flushed: the stream must end with a well-formed
// truncation marker line instead of an abandoned half-written matrix.
func TestBatchRouteNDJSONMidStreamCancellation(t *testing.T) {
	g := testutil.SmallRoad(400, 57)
	idx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := server.New(g, idx).Handler()
	ctx, cancelFn := context.WithCancel(context.Background())
	defer cancelFn()
	sources, targets := batchEndpoints(g, testutil.SamplePairs(g, 4, 733))
	req := httptest.NewRequest(http.MethodPost, "/v1/batch/route",
		strings.NewReader(batchBody(sources, targets))).WithContext(ctx)
	req.Header.Set("Accept", "application/x-ndjson")
	rec := httptest.NewRecorder()
	h.ServeHTTP(&cancelOnFlush{ResponseWriter: rec, cancel: cancelFn}, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 (the header was already committed)", rec.Code)
	}
	lines := ndjsonLines(t, rec.Body.Bytes())
	if len(lines) < 2 {
		t.Fatalf("stream too short:\n%s", rec.Body.Bytes())
	}
	last := lines[len(lines)-1]
	if string(last["truncated"]) != "true" {
		t.Fatalf("cancelled stream does not end with a truncation marker:\n%s", rec.Body.Bytes())
	}
	for _, l := range lines {
		if _, ok := l["done"]; ok {
			t.Fatalf("cancelled stream claims done:\n%s", rec.Body.Bytes())
		}
	}
}

// TestBatchTrailingGarbage: a batch body must be exactly one JSON object —
// trailing tokens after it are a 400, not silently ignored.
func TestBatchTrailingGarbage(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, endpoint := range []string{"/v1/batch/distance", "/v1/batch/route"} {
		for _, body := range []string{
			`{"sources":[0],"targets":[1]}{"sources":[2]}`,
			`{"sources":[0],"targets":[1]} ]`,
			`{"sources":[0],"targets":[1]} 42`,
		} {
			raw := postRaw(t, ts.URL+endpoint, body, "", http.StatusBadRequest)
			if !bytes.Contains(raw, []byte("trailing")) {
				t.Errorf("%s with body %q: error %s does not mention trailing data", endpoint, body, raw)
			}
		}
	}
}
