package chaos

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"roadnet/internal/core"
	"roadnet/internal/graph"
	"roadnet/internal/server"
	"roadnet/internal/testutil"
)

func buildFlaky(t *testing.T) (*graph.Graph, *FlakyIndex) {
	t.Helper()
	g := testutil.SmallRoad(300, 953)
	idx, err := core.BuildIndex(core.MethodDijkstra, g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return g, Wrap(idx)
}

// TestInjectedPanicAnswers500ThenRecovers is the crash-isolation
// acceptance: a panic inside one request's search produces one 500 for
// that request, and the very next request over the same server answers
// normally — the process never dies.
func TestInjectedPanicAnswers500ThenRecovers(t *testing.T) {
	g, fl := buildFlaky(t)
	ts := httptest.NewServer(server.New(g, fl).Handler())
	defer ts.Close()

	url := ts.URL + "/v1/distance?from=0&to=150"
	fl.PanicNext(1)
	if status := getStatus(t, url); status != http.StatusInternalServerError {
		t.Fatalf("armed request: status %d, want 500", status)
	}
	if status := getStatus(t, url); status != http.StatusOK {
		t.Fatalf("request after panic: status %d, want 200", status)
	}
}

// TestInjectedFailureAnswersErrorThenRecovers: an error returned by the
// search is the server's failure, not the client's — 500 with the cause
// kept out of the body, never the 499/503 of a cut-short query — not a hang
// or a wrong answer, and the server keeps serving.
func TestInjectedFailureAnswersErrorThenRecovers(t *testing.T) {
	g, fl := buildFlaky(t)
	ts := httptest.NewServer(server.New(g, fl).Handler())
	defer ts.Close()

	// The route is answered through OpenPath, the distance through
	// DistanceContext.
	for _, url := range []string{ts.URL + "/v1/distance?from=0&to=150", ts.URL + "/v1/route?from=0&to=150"} {
		fl.FailNext(1)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || string(body) != `{"error":"internal server error"}`+"\n" {
			t.Fatalf("%s armed: status %d, body %s; want 500 and no cause", url, resp.StatusCode, body)
		}
		if status := getStatus(t, url); status != http.StatusOK {
			t.Fatalf("%s after failure: status %d, want 200", url, status)
		}
	}
}

// armOnWrite arms one query failure the moment the first response bytes
// reach the wire — deterministically after the stream has committed.
type armOnWrite struct {
	http.ResponseWriter
	fl   *FlakyIndex
	once sync.Once
}

func (a *armOnWrite) Write(p []byte) (int, error) {
	a.once.Do(func() { a.fl.FailNext(1) })
	return a.ResponseWriter.Write(p)
}

// TestInjectedFailureMidStreamTruncatesInBand: once an NDJSON batch route
// has flushed its first row the 200 is on the wire, so a search failing on
// the second cell cannot become a 500 — the stream stays well-formed and
// ends with the in-band truncation marker instead of {"done":true}.
func TestInjectedFailureMidStreamTruncatesInBand(t *testing.T) {
	g, fl := buildFlaky(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/batch/route", strings.NewReader(`{"sources":[0,1],"targets":[150]}`))
	req.Header.Set("Accept", "application/x-ndjson")
	rec := httptest.NewRecorder()
	server.New(g, fl).Handler().ServeHTTP(&armOnWrite{ResponseWriter: rec, fl: fl}, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want the committed 200", rec.Code)
	}
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if want := `{"truncated":true,"error":"` + ErrInjected.Error() + `"}`; len(lines) != 3 || lines[2] != want {
		t.Fatalf("stream = %q; want header, one cell, then %s", lines, want)
	}
	if !strings.HasPrefix(lines[1], `{"i":0,"j":0,"reachable":true,`) {
		t.Fatalf("first cell = %s", lines[1])
	}
}

// TestFailNextFailsOpenPath: the injector sits on OpenPath itself, so one
// armed failure is drawn by the next streamed path and by nothing after it.
func TestFailNextFailsOpenPath(t *testing.T) {
	_, fl := buildFlaky(t)
	sr, ctx := fl.NewSearcher(), context.Background()
	fl.FailNext(1)
	if it, _, err := sr.OpenPath(ctx, 0, 150); !errors.Is(err, ErrInjected) || it != nil {
		t.Fatalf("armed OpenPath: it = %v, err = %v; want ErrInjected", it, err)
	}
	it, d, err := sr.OpenPath(ctx, 0, 150)
	if err != nil {
		t.Fatalf("OpenPath after the failure: %v", err)
	}
	path, err := graph.AppendPath(nil, it)
	if want, wantD := fl.Index.ShortestPath(0, 150); err != nil || d != wantD || !slices.Equal(path, want) {
		t.Fatalf("OpenPath after the failure = %v, %d, %v; the wrapped index says %v, %d", path, d, err, want, wantD)
	}
}

// TestShutdownUnderLoadDropsNothing is the graceful-drain acceptance:
// while slowed queries hold requests in flight, readiness flips and the
// server shuts down — every accepted request still completes with a 200,
// zero are dropped mid-response, and the drain finishes inside its bound.
func TestShutdownUnderLoadDropsNothing(t *testing.T) {
	g, fl := buildFlaky(t)
	fl.DelayEach(2 * time.Millisecond) // keep requests in flight during Shutdown

	health := server.NewHealth()
	srv := server.New(g, fl, server.WithHealth(health))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveDone := make(chan struct{})
	go func() { httpSrv.Serve(ln); close(serveDone) }()

	url := "http://" + ln.Addr().String() + "/v1/distance?from=0&to=150"
	driveCtx, cancelDrive := context.WithCancel(context.Background())
	defer cancelDrive()
	results := make(chan []Outcome, 1)
	go func() { results <- Drive(driveCtx, url, 8, 1000, nil) }()

	// Let the flood get airborne, then drain exactly as spserve does:
	// readiness first, listener second, in-flight requests run out.
	time.Sleep(50 * time.Millisecond)
	health.SetDraining()
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		t.Fatalf("drain incomplete: %v", err)
	}
	<-serveDone
	cancelDrive()
	outcomes := <-results

	var ok, refused int
	for _, o := range outcomes {
		switch {
		case o.Dropped():
			t.Fatalf("request dropped mid-response: status %d, err %v", o.Status, o.Err)
		case o.Status == http.StatusOK:
			ok++
		case o.Status == 0:
			refused++ // post-shutdown connection failures: the balancer's problem
		default:
			t.Fatalf("request answered %d under drain, want only 200s", o.Status)
		}
	}
	if ok == 0 {
		t.Fatal("no request completed before the drain — the test raced itself")
	}
	t.Logf("drained under load: %d completed, %d refused after shutdown", ok, refused)
}

// TestRateLimitIsolatesClientsUnderLoad: a flood from one client earns
// 429s without ever starving a second client keeping inside its budget.
func TestRateLimitIsolatesClientsUnderLoad(t *testing.T) {
	g, fl := buildFlaky(t)
	ts := httptest.NewServer(server.New(g, fl, server.WithRateLimit(1, 3)).Handler())
	defer ts.Close()
	url := ts.URL + "/v1/distance?from=0&to=150"

	greedy := Drive(context.Background(), url, 4, 10,
		http.Header{"X-Forwarded-For": []string{"203.0.113.1"}})
	var ok, limited int
	for _, o := range greedy {
		switch {
		case o.Err != nil:
			t.Fatalf("greedy client: transport error %v", o.Err)
		case o.Status == http.StatusOK:
			ok++
		case o.Status == http.StatusTooManyRequests:
			limited++
		default:
			t.Fatalf("greedy client: status %d, want 200 or 429", o.Status)
		}
	}
	if ok == 0 || limited == 0 {
		t.Fatalf("greedy client saw %d 200s and %d 429s, want both", ok, limited)
	}

	// The greedy client's empty bucket must not touch this one's.
	polite := Drive(context.Background(), url, 1, 3,
		http.Header{"X-Forwarded-For": []string{"203.0.113.2"}})
	for i, o := range polite {
		if o.Err != nil || o.Status != http.StatusOK {
			t.Fatalf("polite request %d: status %d, err %v — starved by the greedy client", i, o.Status, o.Err)
		}
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
