// Per-client admission control: a token bucket per client (first
// X-Forwarded-For hop, else the RemoteAddr host), so one greedy client
// saturating its budget cannot starve the searcher pool for everyone else.
// Over-budget requests get 429 with a Retry-After telling the client when
// a token will be available. Health probes are exempt — a load balancer
// must never be told to back off from /readyz.
package server

import (
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rateLimiter hands out request tokens per client key. Buckets refill
// continuously at qps up to burst; idle buckets are swept once they are
// indistinguishable from fresh ones.
type rateLimiter struct {
	qps   float64
	burst float64
	now   func() time.Time // injectable for deterministic tests

	mu        sync.Mutex
	clients   map[string]*tokenBucket
	lastSweep time.Time
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// sweepInterval bounds how often the client map is scanned for idle
// buckets, so the sweep cost stays amortized across requests.
const sweepInterval = time.Minute

func newRateLimiter(qps float64, burst int) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{
		qps:     qps,
		burst:   float64(burst),
		now:     time.Now,
		clients: make(map[string]*tokenBucket),
	}
}

// allow takes one token from key's bucket. When the bucket is empty it
// reports the whole seconds until a token will have refilled — the
// Retry-After a polite client should honor.
func (rl *rateLimiter) allow(key string) (ok bool, retryAfter int) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	now := rl.now()
	rl.sweepLocked(now)
	b := rl.clients[key]
	if b == nil {
		b = &tokenBucket{tokens: rl.burst, last: now}
		rl.clients[key] = b
	} else {
		b.tokens = math.Min(rl.burst, b.tokens+now.Sub(b.last).Seconds()*rl.qps)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	retry := int(math.Ceil((1 - b.tokens) / rl.qps))
	if retry < 1 {
		retry = 1
	}
	return false, retry
}

// sweepLocked drops buckets idle long enough to have fully refilled — an
// absent bucket and a full one admit identically, so forgetting them only
// frees memory. Callers hold mu.
func (rl *rateLimiter) sweepLocked(now time.Time) {
	if now.Sub(rl.lastSweep) < sweepInterval {
		return
	}
	rl.lastSweep = now
	idle := time.Duration(rl.burst/rl.qps*float64(time.Second)) + time.Second
	for key, b := range rl.clients {
		if now.Sub(b.last) > idle {
			delete(rl.clients, key)
		}
	}
}

// clientKey identifies the client for admission control: the first
// X-Forwarded-For hop when a proxy supplied one, else the connection's
// remote host (port stripped, so one client's parallel connections share a
// bucket).
func clientKey(r *http.Request) string {
	if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
		first, _, _ := strings.Cut(xff, ",")
		if first = strings.TrimSpace(first); first != "" {
			return first
		}
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// rateLimit is the admission middleware. Health probes and the metrics
// scrape bypass it: the load balancer asking /readyz and the collector
// scraping /metrics are not the clients being throttled — and throttling
// the scraper would blind the operator exactly when the node is busiest.
func (s *Server) rateLimit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/readyz" || r.URL.Path == "/metrics" {
			next.ServeHTTP(w, r)
			return
		}
		if ok, retry := s.limiter.allow(clientKey(r)); !ok {
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			sendError(w, http.StatusTooManyRequests,
				"rate limit exceeded; retry after "+strconv.Itoa(retry)+"s")
			return
		}
		next.ServeHTTP(w, r)
	})
}
