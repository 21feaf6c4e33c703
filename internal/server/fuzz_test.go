package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"roadnet/internal/core"
	"roadnet/internal/server"
)

// fuzzRoutes are the endpoints FuzzRequest aims at, by index.
var fuzzRoutes = []struct{ method, path string }{
	{http.MethodGet, "/v1/distance"},
	{http.MethodGet, "/v1/route"},
	{http.MethodGet, "/v1/nearest"},
	{http.MethodGet, "/v1/stats"},
	{http.MethodPost, "/v1/knn"},
	{http.MethodPost, "/v1/within"},
	{http.MethodPost, "/v1/batch/distance"},
	{http.MethodPost, "/v1/batch/route"},
}

// FuzzRequest holds the HTTP decoders to the trust boundary: whatever
// query string and body reach any endpoint, the answer is 200, 400, 404 or
// 413 carrying valid JSON (or NDJSON lines) — never a 5xx, and never a
// panic (recovered ones answer 500; a post-commit one would re-panic
// through ServeHTTP into the fuzzer). There is one target because there is
// one decoder, one vertex check and one snap behind all eight routes. The
// seed corpus is the golden table's requests.
func FuzzRequest(f *testing.F) {
	for _, c := range goldenCases {
		u, err := url.Parse(c.target)
		if err != nil {
			f.Fatal(err)
		}
		for i, rt := range fuzzRoutes {
			if rt.method == c.method && rt.path == u.Path {
				f.Add(uint8(i), u.RawQuery, []byte(c.body), c.ndjson)
			}
		}
	}
	g := goldenGraph(f)
	idx, err := core.BuildIndex(core.MethodCH, g, core.Config{})
	if err != nil {
		f.Fatal(err)
	}
	h := server.New(g, idx).Handler()
	f.Fuzz(func(t *testing.T, route uint8, rawQuery string, body []byte, ndjson bool) {
		rt := fuzzRoutes[int(route)%len(fuzzRoutes)]
		req := httptest.NewRequest(rt.method, rt.path, bytes.NewReader(body))
		req.URL.RawQuery = rawQuery
		if ndjson {
			req.Header.Set("Accept", "application/x-ndjson")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s %s?%s body %q: status %d, body %s", rt.method, rt.path, rawQuery, body, rec.Code, rec.Body)
		}
		docs := [][]byte{rec.Body.Bytes()}
		if rec.Header().Get("Content-Type") == "application/x-ndjson" {
			docs = bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n"))
		}
		for _, doc := range docs {
			if !json.Valid(doc) {
				t.Fatalf("%s %s?%s body %q: status %d, response is not JSON: %s", rt.method, rt.path, rawQuery, body, rec.Code, doc)
			}
		}
	})
}
