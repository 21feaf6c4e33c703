package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fakeClock drives a rateLimiter deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeLimiter(qps float64, burst int) (*rateLimiter, *fakeClock) {
	clock := &fakeClock{t: time.Unix(1_000_000, 0)}
	rl := newRateLimiter(qps, burst)
	rl.now = clock.now
	return rl, clock
}

func TestRateLimiterBurstThenRefill(t *testing.T) {
	rl, clock := newFakeLimiter(2, 3)
	for i := 0; i < 3; i++ {
		if ok, _ := rl.allow("a"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := rl.allow("a")
	if ok {
		t.Fatal("request over burst admitted")
	}
	if retry < 1 {
		t.Fatalf("Retry-After = %d, want >= 1", retry)
	}
	// Half a second at 2 qps refills one token.
	clock.advance(500 * time.Millisecond)
	if ok, _ := rl.allow("a"); !ok {
		t.Fatal("request after refill denied")
	}
	if ok, _ := rl.allow("a"); ok {
		t.Fatal("second request after one-token refill admitted")
	}
}

func TestRateLimiterIsolatesClients(t *testing.T) {
	rl, _ := newFakeLimiter(1, 1)
	if ok, _ := rl.allow("greedy"); !ok {
		t.Fatal("first request denied")
	}
	if ok, _ := rl.allow("greedy"); ok {
		t.Fatal("greedy client not throttled")
	}
	// A different client is untouched by greedy's empty bucket.
	if ok, _ := rl.allow("polite"); !ok {
		t.Fatal("unrelated client throttled")
	}
}

func TestRateLimiterSweepsIdleBuckets(t *testing.T) {
	rl, clock := newFakeLimiter(10, 5)
	for i := 0; i < 100; i++ {
		rl.allow(string(rune('a' + i%26)))
	}
	if len(rl.clients) == 0 {
		t.Fatal("no buckets created")
	}
	// Past the sweep interval and the full-refill horizon, idle buckets are
	// forgotten on the next admission.
	clock.advance(2 * time.Minute)
	rl.allow("fresh")
	if len(rl.clients) != 1 {
		t.Fatalf("%d buckets survive the sweep, want 1", len(rl.clients))
	}
}

func TestRecoverPanicsAnswers500AndKeepsServing(t *testing.T) {
	var fail bool
	h := new(Server).serve(nil, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail {
			panic("injected handler bug")
		}
		new(Server).handleHealthz(w, r)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	fail = true
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", resp.StatusCode)
	}

	// The process (and the test server) kept serving.
	fail = false
	resp, err = http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic: status %d, want 200", resp.StatusCode)
	}
}

// TestRecoverPanicsPassesAbortHandler checks the sentinel passes through:
// the streaming code's deliberate connection abort must stay a connection
// abort, not become a logged 500.
func TestRecoverPanicsPassesAbortHandler(t *testing.T) {
	h := new(Server).serve(nil, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err == nil {
		// The headers may have made it out before the abort; the body must
		// then fail mid-read.
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("aborted connection produced a clean response")
	}
}

// TestRecoverPanicsAfterCommitAbortsConnection checks the committed case:
// once response bytes are on the wire a panic cannot honestly become a
// 500, so the connection dies instead.
func TestRecoverPanicsAfterCommitAbortsConnection(t *testing.T) {
	h := new(Server).serve(nil, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"partial":`)
		w.(http.Flusher).Flush()
		panic("bug after commit")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("post-commit panic produced a clean response")
	}
}

func TestClientKey(t *testing.T) {
	mk := func(remote, xff string) *http.Request {
		r, _ := http.NewRequest("GET", "/v1/stats", nil)
		r.RemoteAddr = remote
		if xff != "" {
			r.Header.Set("X-Forwarded-For", xff)
		}
		return r
	}
	cases := []struct {
		remote, xff, want string
	}{
		{"10.0.0.7:4312", "", "10.0.0.7"},
		{"10.0.0.7:4312", "203.0.113.9", "203.0.113.9"},
		{"10.0.0.7:4312", "203.0.113.9, 198.51.100.2", "203.0.113.9"},
		{"[::1]:80", "", "::1"},
		{"no-port", "", "no-port"},
		{"10.0.0.7:4312", " , ", "10.0.0.7"},
	}
	for _, c := range cases {
		if got := clientKey(mk(c.remote, c.xff)); got != c.want {
			t.Errorf("clientKey(remote=%q, xff=%q) = %q, want %q", c.remote, c.xff, got, c.want)
		}
	}
}

// TestCodeSlot pins the code label serve records for each status: the
// four operationally distinct codes exact, every other status its class,
// and a handler that wrote nothing as the 200 net/http sends.
func TestCodeSlot(t *testing.T) {
	for code, want := range map[int]string{
		0: "2xx", 103: "1xx", 200: "2xx", 204: "2xx", 304: "3xx", 400: "4xx", 404: "4xx",
		413: "4xx", 429: "429", 499: "499", 500: "500", 502: "5xx", 503: "503", 599: "5xx", 999: "9xx",
	} {
		if got := codeLabels[codeSlot(code)]; got != want {
			t.Errorf("status %d: code label %q, want %q", code, got, want)
		}
	}
}
