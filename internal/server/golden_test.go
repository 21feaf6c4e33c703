package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"roadnet/internal/chaos"
	"roadnet/internal/core"
	"roadnet/internal/geom"
	"roadnet/internal/graph"
	"roadnet/internal/server"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/responses.golden.json from the current responses")

// goldenGraph is the 25-vertex fixture of the response table and the
// request fuzzer: a 5-wide grid whose first four rows (vertices 0..19) are
// connected by edges of uneven weight and whose last row (20..24) is a
// separate chain, so every response shape — reachable, zero-distance,
// unreachable — occurs. Built by hand, not by internal/gen, so the pinned
// bodies survive changes to the generator.
func goldenGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(25)
	for i := 0; i < 25; i++ {
		b.AddVertex(geom.Point{X: int32(i % 5 * 10), Y: int32(i / 5 * 10)})
	}
	edge := func(u, v int) {
		if err := b.AddEdge(graph.VertexID(u), graph.VertexID(v), graph.Weight(10+(u*7+v*3)%5)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		if i%5 < 4 {
			edge(i, i+1)
		}
		if i < 15 {
			edge(i, i+5)
		}
	}
	return b.Build()
}

// goldenFixture holds the servers the table's rows are sent to, by name.
type goldenFixture struct {
	handlers map[string]http.Handler
	flaky    *chaos.FlakyIndex // behind "flaky"
}

func newGoldenFixture(t testing.TB) *goldenFixture {
	t.Helper()
	g := goldenGraph(t)
	idx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	empty := graph.NewBuilder(0).Build()
	emptyIdx, err := core.BuildIndex(core.MethodDijkstra, empty, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	draining := server.NewHealth()
	draining.SetDraining()
	f := &goldenFixture{flaky: chaos.Wrap(idx)}
	// "held" waits on a pool whose only searcher is checked out for good.
	held := core.NewPool(idx, core.WithMaxSearchers(1))
	if _, err := held.GetContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.handlers = map[string]http.Handler{
		"":         server.New(g, idx).Handler(),
		"limits":   server.New(g, idx, server.WithBatchLimits(16, 4, 256), server.WithSpatialLimits(3, 2)).Handler(),
		"budget":   server.New(g, idx, server.WithBatchRouteVertexBudget(1)).Handler(),
		"empty":    server.New(empty, emptyIdx).Handler(),
		"flaky":    server.New(g, f.flaky).Handler(),
		"held":     server.New(g, idx, server.WithPool(held)).Handler(),
		"draining": server.New(g, idx, server.WithHealth(draining)).Handler(),
		"limited":  server.New(g, idx, server.WithRateLimit(0.001, 1)).Handler(),
	}
	return f
}

// goldenCase is one request of the table. ctx selects the request context:
// "" (background), "cancelled" or "expired".
type goldenCase struct {
	name   string
	server string
	method string
	target string
	body   string
	ndjson bool
	ctx    string
	arm    func(*goldenFixture)
}

func get(name, target string) goldenCase {
	return goldenCase{name: name, method: http.MethodGet, target: target}
}

func post(name, target, body string) goldenCase {
	return goldenCase{name: name, method: http.MethodPost, target: target, body: body}
}

func (c goldenCase) on(server string) goldenCase { c.server = server; return c }
func (c goldenCase) lines() goldenCase           { c.ndjson = true; return c }
func (c goldenCase) with(ctx string) goldenCase  { c.ctx = ctx; return c }

const goldenMatrix = `{"sources":[0,7,22],"targets":[19,7,23]}`

// goldenCases is the "same behaviour" judge of the request path: every
// endpoint's success shapes and every 4xx/413/404 branch docs/API.md lists,
// plus the context, failure and middleware answers.
var goldenCases = []goldenCase{
	get("distance/ok", "/v1/distance?from=0&to=19"),
	get("distance/zero", "/v1/distance?from=7&to=7"),
	get("distance/unreachable", "/v1/distance?from=0&to=22"),
	get("distance/extra-param", "/v1/distance?from=0&to=19&verbose=1"),
	get("distance/no-params", "/v1/distance"),
	get("distance/missing-to", "/v1/distance?from=0"),
	get("distance/unparseable", "/v1/distance?from=abc&to=1"),
	get("distance/out-of-range", "/v1/distance?from=0&to=25"),
	get("distance/negative", "/v1/distance?from=-1&to=0"),
	get("distance/overflows-int32", "/v1/distance?from=0&to=99999999999"),
	get("distance/bad-escape", "/v1/distance?from=%zz&to=1"),
	get("distance/coordinates-not-accepted", "/v1/distance?from_x=1&from_y=1&to=1"),
	get("distance/cancelled", "/v1/distance?from=0&to=19").with("cancelled"),
	get("distance/expired", "/v1/distance?from=0&to=19").with("expired"),
	{name: "distance/searcher-fails", server: "flaky", method: http.MethodGet, target: "/v1/distance?from=0&to=19",
		arm: func(f *goldenFixture) { f.flaky.FailNext(1) }},
	{name: "distance/searcher-panics", server: "flaky", method: http.MethodGet, target: "/v1/distance?from=0&to=19",
		arm: func(f *goldenFixture) { f.flaky.PanicNext(1) }},
	post("distance/wrong-method", "/v1/distance?from=0&to=19", ""),

	get("route/ok", "/v1/route?from=0&to=19"),
	get("route/zero", "/v1/route?from=3&to=3"),
	get("route/unreachable", "/v1/route?from=0&to=22"),
	get("route/by-coordinates", "/v1/route?from_x=1&from_y=1&to_x=41&to_y=29"),
	get("route/mixed-forms", "/v1/route?from=0&to_x=41&to_y=29"),
	get("route/no-params", "/v1/route"),
	get("route/missing-to", "/v1/route?from=0"),
	get("route/unparseable", "/v1/route?from=0&to=notanumber"),
	get("route/out-of-range", "/v1/route?from=25&to=0"),
	get("route/both-forms", "/v1/route?from=0&from_x=1&from_y=1&to=2"),
	get("route/both-forms-half", "/v1/route?from=0&from_y=1&to=2"),
	get("route/half-coordinate", "/v1/route?from_x=1&to=2"),
	get("route/coordinate-not-integer", "/v1/route?from=0&to_x=a&to_y=1"),
	get("route/empty-graph-snap", "/v1/route?from_x=1&from_y=1&to_x=2&to_y=2").on("empty"),
	get("route/cancelled", "/v1/route?from=0&to=19").with("cancelled"),
	get("route/pool-wait-expired", "/v1/route?from=0&to=19").on("held").with("expired"),

	get("nearest/ok", "/v1/nearest?x=11&y=9"),
	get("nearest/unparseable", "/v1/nearest?x=a&y=2"),
	get("nearest/no-params", "/v1/nearest"),
	get("nearest/half", "/v1/nearest?x=1"),
	get("nearest/empty-graph", "/v1/nearest?x=1&y=1").on("empty"),

	get("stats/ok", "/v1/stats"),

	post("knn/by-source", "/v1/knn", `{"source":0,"k":3}`),
	post("knn/by-coordinates", "/v1/knn", `{"x":12,"y":8,"k":2}`),
	post("knn/isolated-row", "/v1/knn", `{"source":24,"k":10}`),
	post("knn/no-point", "/v1/knn", `{"k":5}`),
	post("knn/no-k", "/v1/knn", `{"source":0}`),
	post("knn/k-zero", "/v1/knn", `{"source":0,"k":0}`),
	post("knn/k-over-limit", "/v1/knn", `{"source":0,"k":4}`).on("limits"),
	post("knn/out-of-range", "/v1/knn", `{"source":25,"k":3}`),
	post("knn/negative", "/v1/knn", `{"source":-1,"k":3}`),
	post("knn/both-forms", "/v1/knn", `{"source":0,"x":1,"y":2,"k":3}`),
	post("knn/half-coordinate", "/v1/knn", `{"x":1,"k":3}`),
	post("knn/unknown-field", "/v1/knn", `{"source":0,"k":3,"extra":true}`),
	post("knn/trailing-data", "/v1/knn", `{"source":0,"k":3}{"source":1}`),
	post("knn/not-json", "/v1/knn", `not json`),
	post("knn/empty-body", "/v1/knn", ``),
	post("knn/wrong-type", "/v1/knn", `{"source":"zero","k":3}`),
	post("knn/oversized-body", "/v1/knn", `{"source":0,"k":3`+strings.Repeat(" ", 300)+`}`).on("limits"),
	post("knn/empty-graph-snap", "/v1/knn", `{"x":1,"y":1,"k":1}`).on("empty"),
	post("knn/cancelled", "/v1/knn", `{"source":0,"k":3}`).with("cancelled"),
	post("knn/pool-wait-expired", "/v1/knn", `{"source":0,"k":3}`).on("held").with("expired"),
	get("knn/wrong-method", "/v1/knn"),

	post("within/ok", "/v1/within", `{"source":0,"radius":25}`),
	post("within/limit-truncates", "/v1/within", `{"source":0,"radius":100,"limit":2}`),
	post("within/server-limit-truncates", "/v1/within", `{"source":0,"radius":100}`).on("limits"),
	post("within/euclid", "/v1/within", `{"x":0,"y":0,"radius":100,"euclid_radius":15}`),
	post("within/euclid-square-overflows", "/v1/within", `{"source":0,"radius":25,"euclid_radius":4000000000}`),
	post("within/nothing-in-range", "/v1/within", `{"source":0,"radius":1}`),
	post("within/radius-zero", "/v1/within", `{"source":0,"radius":0}`),
	post("within/radius-missing", "/v1/within", `{"source":0}`),
	post("within/euclid-negative", "/v1/within", `{"source":0,"radius":5,"euclid_radius":-1}`),
	post("within/no-point", "/v1/within", `{"radius":5}`),
	post("within/out-of-range", "/v1/within", `{"source":25,"radius":5}`),
	post("within/unknown-field", "/v1/within", `{"source":0,"radius":5,"k":1}`),
	post("within/trailing-data", "/v1/within", `{"source":0,"radius":5} 42`),
	post("within/empty-graph-snap", "/v1/within", `{"x":1,"y":1,"radius":5}`).on("empty"),
	post("within/expired", "/v1/within", `{"source":0,"radius":25}`).with("expired"),

	post("batch-distance/ok", "/v1/batch/distance", goldenMatrix),
	post("batch-distance/ok-ndjson", "/v1/batch/distance", goldenMatrix).lines(),
	post("batch-distance/empty-lists", "/v1/batch/distance", `{"sources":[],"targets":[]}`),
	post("batch-distance/absent-lists", "/v1/batch/distance", `{}`),
	post("batch-distance/absent-lists-ndjson", "/v1/batch/distance", `{}`).lines(),
	post("batch-distance/no-targets", "/v1/batch/distance", `{"sources":[0,1]}`),
	post("batch-distance/source-out-of-range", "/v1/batch/distance", `{"sources":[0,25],"targets":[0]}`),
	post("batch-distance/target-negative", "/v1/batch/distance", `{"sources":[0],"targets":[3,-1]}`),
	post("batch-distance/truncated-json", "/v1/batch/distance", `{"sources":[0],"targets":[0]`),
	post("batch-distance/wrong-type", "/v1/batch/distance", `{"sources":"zero","targets":[0]}`),
	post("batch-distance/not-json", "/v1/batch/distance", `not json at all`),
	post("batch-distance/unknown-field", "/v1/batch/distance", `{"sources":[0],"targets":[0],"bogus":true}`),
	post("batch-distance/trailing-object", "/v1/batch/distance", `{"sources":[0],"targets":[1]}{"sources":[2]}`),
	post("batch-distance/trailing-token", "/v1/batch/distance", `{"sources":[0],"targets":[1]} ]`),
	post("batch-distance/list-over-cap", "/v1/batch/distance", `{"sources":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"targets":[]}`).on("limits"),
	post("batch-distance/product-over-cap", "/v1/batch/distance", `{"sources":[0,1,2,3,4],"targets":[0,1,2,3,4]}`).on("limits"),
	post("batch-distance/oversized-body", "/v1/batch/distance", `{"sources":[`+strings.Repeat("0,", 200)+`0],"targets":[0]}`).on("limits"),
	post("batch-distance/cancelled", "/v1/batch/distance", goldenMatrix).with("cancelled"),
	get("batch-distance/wrong-method", "/v1/batch/distance"),

	post("batch-route/ok", "/v1/batch/route", goldenMatrix),
	post("batch-route/ok-ndjson", "/v1/batch/route", goldenMatrix).lines(),
	post("batch-route/absent-lists", "/v1/batch/route", `{}`),
	post("batch-route/absent-lists-ndjson", "/v1/batch/route", `{}`).lines(),
	post("batch-route/no-targets", "/v1/batch/route", `{"sources":[0,1]}`),
	post("batch-route/target-out-of-range", "/v1/batch/route", `{"sources":[0],"targets":[25]}`),
	post("batch-route/unknown-field", "/v1/batch/route", `{"sources":[0],"targets":[0],"bogus":true}`),
	post("batch-route/trailing-token", "/v1/batch/route", `{"sources":[0],"targets":[1]} 42`),
	post("batch-route/route-pair-cap", "/v1/batch/route", `{"sources":[0,1,2],"targets":[0,1]}`).on("limits"),
	post("batch-route/distance-accepts-route-cap", "/v1/batch/distance", `{"sources":[0,1,2],"targets":[0,1]}`).on("limits"),
	post("batch-route/oversized-body", "/v1/batch/route", `{"sources":[`+strings.Repeat("0,", 200)+`0],"targets":[0]}`).on("limits"),
	post("batch-route/vertex-budget", "/v1/batch/route", `{"sources":[0],"targets":[19]}`).on("budget"),
	post("batch-route/vertex-budget-ndjson-unsent", "/v1/batch/route", `{"sources":[0],"targets":[19]}`).on("budget").lines(),
	post("batch-route/vertex-budget-ndjson-truncates", "/v1/batch/route", `{"sources":[0,1],"targets":[0]}`).on("budget").lines(),
	post("batch-route/cancelled", "/v1/batch/route", goldenMatrix).with("cancelled"),
	post("batch-route/cancelled-ndjson", "/v1/batch/route", goldenMatrix).with("cancelled").lines(),
	post("batch-route/pool-wait-expired", "/v1/batch/route", goldenMatrix).on("held").with("expired"),

	get("healthz", "/healthz"),
	get("readyz/ready", "/readyz"),
	get("readyz/draining", "/readyz").on("draining"),
	get("metrics/disabled", "/metrics"),
	get("unmatched-path", "/v1/nowhere"),
	get("rate-limit/admitted", "/v1/stats").on("limited"),
	get("rate-limit/refused", "/v1/stats").on("limited"),
	get("rate-limit/probe-exempt", "/healthz").on("limited"),
}

// goldenResponse is what a row pins.
type goldenResponse struct {
	Name        string `json:"name"`
	Status      int    `json:"status"`
	ContentType string `json:"content_type"`
	RetryAfter  string `json:"retry_after"`
	Body        string `json:"body"`
}

// buildMillis is the one timing-dependent field of any pinned body.
var buildMillis = regexp.MustCompile(`"build_millis":\d+`)

func (f *goldenFixture) serve(c goldenCase) goldenResponse {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	switch c.ctx {
	case "cancelled":
		cancel()
	case "expired":
		ctx, cancel = context.WithDeadline(ctx, time.Unix(0, 0))
		defer cancel()
	}
	if c.arm != nil {
		c.arm(f)
	}
	req := httptest.NewRequest(c.method, c.target, strings.NewReader(c.body)).WithContext(ctx)
	if c.ndjson {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	rec := httptest.NewRecorder()
	f.handlers[c.server].ServeHTTP(rec, req)
	return goldenResponse{
		Name:        c.name,
		Status:      rec.Code,
		ContentType: rec.Header().Get("Content-Type"),
		RetryAfter:  rec.Header().Get("Retry-After"),
		Body:        buildMillis.ReplaceAllString(rec.Body.String(), `"build_millis":0`),
	}
}

const goldenPath = "testdata/responses.golden.json"

// TestResponsesGolden pins status, Content-Type, Retry-After and the exact
// body of every row of goldenCases. Regenerate with
// `go test ./internal/server -run TestResponsesGolden -update` — in the
// commit that argues why an answer changed.
func TestResponsesGolden(t *testing.T) {
	log.SetOutput(io.Discard) // the panic row logs a stack
	defer log.SetOutput(os.Stderr)
	f := newGoldenFixture(t)
	got := make([]goldenResponse, len(goldenCases))
	for i, c := range goldenCases {
		got[i] = f.serve(c)
	}
	if *updateGolden {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", " ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenResponse
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s pins %d rows, the table has %d; regenerate with -update", goldenPath, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s:\n got %+v\nwant %+v", got[i].Name, got[i], want[i])
		}
	}
}
