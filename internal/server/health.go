// Health and readiness. Liveness (/healthz) says the process is serving;
// readiness (/readyz) says this node should receive traffic — it flips to
// 503 while draining so load balancers pull the node before shutdown, and
// it surfaces degraded mode (index verification failed, queries answered
// exactly by plain Dijkstra) so operators can see a node limping along
// without taking it out of rotation.
package server

import (
	"net/http"
	"sync/atomic"
)

// Health is the shared serving-state record behind /healthz and /readyz.
// One Health is typically owned by the process lifecycle (spserve flips
// Draining on SIGTERM, sets Degraded/Verified from the index load) and
// handed to the server with WithHealth. All methods are safe for
// concurrent use.
type Health struct {
	draining atomic.Bool
	degraded atomic.Bool
	verified atomic.Bool
	reason   atomic.Value // string: why the node is degraded
}

// NewHealth returns a Health in the fully-up state: not draining, not
// degraded, nothing verified yet.
func NewHealth() *Health { return &Health{} }

// SetDraining marks the node as shutting down: /readyz answers 503 from
// the next probe on, while in-flight and follow-up requests keep being
// served until the listener closes. There is no way back — a draining
// process exits.
func (h *Health) SetDraining() { h.draining.Store(true) }

// Draining reports whether SetDraining has been called.
func (h *Health) Draining() bool { return h.draining.Load() }

// SetDegraded marks the node as serving in degraded mode (exact answers
// from a plain Dijkstra pool after the real index failed verification),
// with a reason for the readiness report.
func (h *Health) SetDegraded(reason string) {
	h.reason.Store(reason)
	h.degraded.Store(true)
}

// Degraded reports whether the node is in degraded mode.
func (h *Health) Degraded() bool { return h.degraded.Load() }

// SetVerified records whether every checksummed file behind the serving
// state was verified at load.
func (h *Health) SetVerified(v bool) { h.verified.Store(v) }

// Verified reports the last SetVerified value.
func (h *Health) Verified() bool { return h.verified.Load() }

// handleHealthz is liveness: 200 as long as the process can run a handler.
// A supervisor restarts the process when this stops answering; it must not
// depend on index state, so it never returns anything but 200.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rp := newReply()
	rp.send(w, http.StatusOK, append(rp.b, `{"ok":true}`...))
}

// handleReadyz is readiness: 200 while the node wants traffic, 503 once it
// is draining. Degraded mode stays ready — exact answers from the Dijkstra
// fallback beat no answers — but is flagged for operators (see
// appendReadyz for the body).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.health
	draining := h.Draining()
	reason, _ := h.reason.Load().(string)
	status := http.StatusOK
	if draining {
		status = http.StatusServiceUnavailable
	}
	rp := newReply()
	rp.send(w, status, appendReadyz(rp.b, draining, h.Degraded(), h.Verified(), reason))
}
