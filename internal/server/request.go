// The request path; doc.go describes it end to end.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"runtime/debug"
	"strings"
	"time"

	"roadnet/internal/geom"
	"roadnet/internal/graph"
)

// responseWriter is the package's one http.ResponseWriter wrapper: it
// records the status that reached the wire, 0 while nothing has — what
// panic recovery, the request counter and the batch stream each need to
// know. Flush and Unwrap keep streaming and http.ResponseController
// working through it.
type responseWriter struct {
	http.ResponseWriter
	status int
}

func (w *responseWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *responseWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *responseWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *responseWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// serve is the top of the handler chain: it installs the responseWriter,
// recovers panics and, with metrics enabled, tracks the in-flight gauge and
// records latency and the (endpoint, code) counter on the way out — after
// recovery, so a recovered panic's 500 is counted like any other answer,
// and also during the unwind of a deliberate mid-stream abort, into the
// series of the pattern mux routes the request to.
func (s *Server) serve(mux *http.ServeMux, series map[string]*routeMetrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rw := &responseWriter{ResponseWriter: w}
		if m := s.m; m != nil {
			// Resolve the pattern without dispatching: unregistered paths
			// collapse into one "other" label instead of minting a metric
			// child per probe URL a scanner throws at us.
			_, pattern := mux.Handler(r)
			rm := series[pattern]
			if rm == nil {
				rm = series["other"]
			}
			start := time.Now()
			m.inflight.Inc()
			defer func() {
				m.inflight.Dec()
				rm.observe(m, rw.status, time.Since(start))
			}()
		}
		defer recoverPanic(rw, r)
		next.ServeHTTP(rw, r)
	})
}

// recoverPanic, deferred by serve, keeps one failing request from killing
// the process: a handler panic is logged with its stack and answered 500
// while the response is still unsent; once part of it is on the wire the
// connection is aborted instead — forging a well-formed tail would be
// worse. http.ErrAbortHandler passes through untouched: it is the stream's
// own deliberate abort (see stream.go), which net/http handles quietly.
func recoverPanic(w *responseWriter, r *http.Request) {
	v := recover()
	if v == nil {
		return
	}
	if v == http.ErrAbortHandler {
		panic(v)
	}
	log.Printf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
	if w.status != 0 {
		panic(http.ErrAbortHandler)
	}
	sendError(w, http.StatusInternalServerError, "internal server error")
}

// queryRoute returns the handler of a query endpoint counted under kind in
// roadnet_queries_total. It is the only place a query request is
// sequenced: parse validates the request — its query string, read key by
// key through params, and its body — into a Q; a failure there is the
// client's and is not a query. The query is counted, before admission to
// the searcher pool; run answers it. Either step fails by returning an
// error, and only this handler calls writeError. The kind is static per
// route, so per-stage timers around parse and run, the request id and the
// access-log line belong in this closure.
func queryRoute[Q any](s *Server, kind string,
	parse func(w http.ResponseWriter, r *http.Request, query params) (Q, error),
	run func(w *responseWriter, r *http.Request, q Q) error) http.HandlerFunc {
	queries := s.m.queryCounter(kind)
	return func(w http.ResponseWriter, r *http.Request) {
		rw := w.(*responseWriter) // installed by serve
		q, err := parse(rw, r, params(r.URL.RawQuery))
		if err == nil {
			if queries != nil {
				queries.Inc()
			}
			err = run(rw, r, q)
		}
		if err != nil {
			writeError(rw, r, err)
		}
	}
}

// params is a request's raw query string, read key by key: no url.Values.
type params string

// get returns the first value of key, or "", by url.ParseQuery's rules:
// pairs split at '&', a pair holding ';' or failing to unescape skipped.
// It allocates only to unescape a key or value holding an escape.
func (p params) get(key string) string {
	for rest := string(p); rest != ""; {
		var pair string
		pair, rest, _ = strings.Cut(rest, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// apiError is a failure with a status of its own: what a parse step
// returns for a request it rejects (400, 413) and a run step for an answer
// that cannot be given (404, 413). The message is sent to the client.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

// writeError answers a request whose step returned err: an apiError with
// its own status; a context error with 499 (the client went away) or 503
// (a served deadline: the request timeout, or a bounded pool exhausted
// until it) plus a Retry-After, so clients back off instead of hot-retrying
// into the same overload; anything else with 500, the cause to the log.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	status, msg := http.StatusInternalServerError, "internal server error"
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		status, msg = ae.status, ae.msg
	case errors.Is(err, context.Canceled):
		status, msg = statusClientClosedRequest, "query aborted: "+err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		status, msg = http.StatusServiceUnavailable, "query aborted: "+err.Error()
		w.Header().Set("Retry-After", "1")
	default:
		log.Printf("server: %s %s: %v", r.Method, r.URL.Path, err)
	}
	sendError(w, status, msg)
}

// decodeStrict decodes exactly one JSON object into v under the batch-body
// byte limit: unknown fields and trailing data are 400, an oversized body
// is 413.
func (s *Server) decodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBatchBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		// A body over the MaxBytesReader limit is not malformed JSON — it
		// is a too-large request, and the status must say so (413, not 400)
		// so clients know shrinking it will help.
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &apiError{http.StatusRequestEntityTooLarge, err.Error()}
		}
		return badRequest("invalid JSON: %v", err)
	}
	// Decode stops at the end of the first JSON value; anything but EOF
	// after it is trailing garbage (a second object, stray tokens), which
	// a strict API must reject rather than silently ignore.
	if _, err := dec.Token(); err != io.EOF {
		return badRequest("invalid JSON: trailing data after request object")
	}
	return nil
}

// vertex is the one range check between a client-supplied id and a
// graph.VertexID.
func (s *Server) vertex(id int64) (graph.VertexID, error) {
	if n := s.g.NumVertices(); id < 0 || id >= int64(n) {
		return 0, badRequest("vertex %d out of range [0, %d)", id, n)
	}
	return graph.VertexID(id), nil
}

// snap resolves a coordinate to its nearest vertex through the R-tree
// locator (best-first MBR browsing; ties broken by smaller vertex id). Only
// an empty graph has none.
func (s *Server) snap(x, y int32) (graph.VertexID, bool) {
	v := s.spatial.NearestVertex(geom.Point{X: x, Y: y})
	return v, v >= 0
}
