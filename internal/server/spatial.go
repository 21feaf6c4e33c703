package server

// The spatial endpoints: /v1/knn (network k-nearest neighbors) and
// /v1/within (network range). Both POST one strict JSON object — same
// rules as the batch endpoints: unknown fields and trailing data are 400,
// an oversized body is 413 — and both accept the query point either as a
// vertex id or as a raw coordinate snapped through the R-tree. The
// searches run on the core.SpatialLocator with the request context
// propagated, so they observe the pool's admission bound, the per-request
// deadline and client disconnects like every other query.

import (
	"net/http"

	"roadnet/internal/core"
	"roadnet/internal/graph"
)

// spatialPoint is the shared "where" of a spatial request: exactly one of
// Source (a vertex id) or the X/Y coordinate pair (snapped to its nearest
// vertex).
type spatialPoint struct {
	Source *int64 `json:"source"`
	X      *int32 `json:"x"`
	Y      *int32 `json:"y"`
}

// resolve validates the point and returns the query vertex.
func (p *spatialPoint) resolve(s *Server) (graph.VertexID, error) {
	switch {
	case p.Source != nil && (p.X != nil || p.Y != nil):
		return 0, badRequest(`give either "source" or "x"/"y", not both`)
	case p.Source != nil:
		return s.vertex(*p.Source)
	case p.X == nil || p.Y == nil:
		return 0, badRequest(`need "source", or both "x" and "y"`)
	}
	v, ok := s.snap(*p.X, *p.Y)
	if !ok {
		return 0, badRequest("cannot snap coordinate: empty graph")
	}
	return v, nil
}

// knnRequest is the /v1/knn body; parseKNN leaves the resolved query
// vertex in src.
type knnRequest struct {
	spatialPoint
	K   int `json:"k"`
	src graph.VertexID
}

func (s *Server) parseKNN(w http.ResponseWriter, r *http.Request, _ params) (req knnRequest, err error) {
	if err = s.decodeStrict(w, r, &req); err != nil {
		return req, err
	}
	if req.K < 1 || req.K > s.maxKNN {
		return req, badRequest("k must be in [1, %d], got %d", s.maxKNN, req.K)
	}
	req.src, err = req.resolve(s)
	return req, err
}

// knn answers the k vertices nearest to the query point by network
// distance, ordered by (distance, id), via the locator's bounded Dijkstra
// whatever technique the index is. The query holds a pool searcher slot it
// does not use, for admission control, so a bounded pool bounds spatial
// work too.
func (s *Server) knn(w *responseWriter, r *http.Request, req knnRequest) error {
	sr, err := s.pool.GetContext(r.Context())
	if err != nil {
		return err
	}
	defer s.pool.Put(sr)
	neighbors, err := s.spatial.KNearest(r.Context(), req.src, req.K)
	if err != nil {
		return err
	}
	rp := newReply()
	rp.send(w, http.StatusOK, appendKNN(rp.b, req.src, req.K, neighbors))
	return nil
}

// withinRequest is the /v1/within body; parseWithin leaves the resolved
// query vertex in src and the effective cap in Limit.
type withinRequest struct {
	spatialPoint
	// Radius is the network-distance bound (required, positive).
	Radius int64 `json:"radius"`
	// EuclidRadius, when positive, intersects the answer with the
	// Euclidean ball of that radius around the query point (R-tree
	// pre-filter; the bounded search stops once all geometric candidates
	// are proven).
	EuclidRadius int64 `json:"euclid_radius"`
	// Limit caps the neighbor count (0 = the server's maximum). Values
	// above the server's maximum are clamped to it.
	Limit int `json:"limit"`
	src   graph.VertexID
}

func (s *Server) parseWithin(w http.ResponseWriter, r *http.Request, _ params) (req withinRequest, err error) {
	if err = s.decodeStrict(w, r, &req); err != nil {
		return req, err
	}
	if req.Radius < 1 {
		return req, badRequest("radius must be positive, got %d", req.Radius)
	}
	if req.EuclidRadius < 0 {
		return req, badRequest("euclid_radius must not be negative, got %d", req.EuclidRadius)
	}
	if req.Limit <= 0 || req.Limit > s.maxWithinResults {
		req.Limit = s.maxWithinResults
	}
	req.src, err = req.resolve(s)
	return req, err
}

// within answers the vertices within a network distance of the query point
// via a bounded Dijkstra, ordered by (distance, id). Truncated responses
// (over the limit) keep the closest neighbors and say so.
func (s *Server) within(w *responseWriter, r *http.Request, req withinRequest) error {
	sr, err := s.pool.GetContext(r.Context())
	if err != nil {
		return err
	}
	defer s.pool.Put(sr)
	neighbors, truncated, err := s.spatial.Within(r.Context(), req.src, req.Radius, core.WithinOptions{
		EuclidRadius: req.EuclidRadius,
		MaxResults:   req.Limit,
	})
	if err != nil {
		return err
	}
	rp := newReply()
	rp.send(w, http.StatusOK, appendWithin(rp.b, req.src, req.Radius, truncated, neighbors))
	return nil
}
