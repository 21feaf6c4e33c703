// Command spserve serves shortest path and distance queries over HTTP —
// the online-map-service deployment the paper's introduction motivates.
//
// Usage:
//
//	spserve -preset CO -method ch -addr :8080
//	spserve -gr map.gr -co map.co -method tnr -index tnr.idx
//
// With -index, the index is loaded from the file when it exists and
// otherwise built and saved to it (preprocess once, serve forever); a
// method without a file format (dijkstra, alt, arcflags) is refused before
// anything is built. Index
// files in the flat v2 format are mmap'd by default on supported platforms
// (-mmap=false forces heap loads): startup is O(#sections) regardless of
// index size and the resident index memory is page cache shared across
// processes. -graph likewise caches the parsed network in binary form, so
// restarts skip DIMACS text parsing. Every load logs its mode (mmap /
// heap), duration and byte count.
//
// Queries are served concurrently: the index data is shared read-only
// across all request goroutines and each request draws a per-goroutine
// query context from a searcher pool, so throughput scales with cores
// (GOMAXPROCS).
//
// The searcher pool can be bounded (-pool-max caps live searchers, so the
// per-searcher O(n) arrays cannot grow without bound on very large graphs)
// and pre-warmed (-prewarm builds N searchers before the listener opens, so
// the first request burst does not pay N allocations).
//
// API (see docs/API.md for the full contract):
//
//	GET  /v1/distance?from=ID&to=ID
//	GET  /v1/route?from=ID&to=ID      (or from_x/from_y, to_x/to_y coordinates)
//	GET  /v1/nearest?x=X&y=Y
//	GET  /v1/stats
//	POST /v1/batch/distance            {"sources":[...],"targets":[...]}
//	POST /v1/batch/route               {"sources":[...],"targets":[...]}
//	POST /v1/knn                       {"source":ID,"k":K}
//	POST /v1/within                    {"source":ID,"radius":R}
//
// The spatial tier (coordinate snapping, /v1/knn, /v1/within) runs on an
// R-tree over the vertex coordinates, bulk-loaded at startup or mmap'd
// from a -rtree cache file. /v1/knn and /v1/within answer by exact network
// distance from one bounded Dijkstra, whatever -method serves the
// point-to-point endpoints. -request-timeout bounds every request's
// wall-clock time.
//
// Batch routes are streamed row-by-row from lazy path iterators, so the
// server's resident memory is bounded regardless of path length and
// matrix size; with "Accept: application/x-ndjson" the response arrives
// as newline-delimited cells instead of one JSON document. A per-request
// total-vertex budget (-route-vertex-budget) caps how much path data one
// request may produce. Request contexts are propagated into every query,
// so disconnected clients stop consuming CPU mid-search.
//
// # Production resilience
//
// Flat-file checksums are verified at load by default (-verify=false
// skips the sweep, keeping mapped startups O(#sections), and trusts the
// files: audit them with spverify first). A cache of another format
// version is stale: it is rebuilt from its source and overwritten. A
// corrupt index file does not stop the boot: the server falls back to
// exact answers from a Dijkstra index and reports "degraded":true on
// /readyz, so the fleet keeps answering while the operator rebuilds the
// file. GET /healthz is liveness (always 200 while the process serves);
// GET /readyz is readiness (503 while draining).
// -rate-limit/-rate-burst bound each client's admission (429 with
// Retry-After beyond the budget), and handler panics answer 500 without
// taking down the process.
//
// On SIGINT/SIGTERM the server drains instead of dying mid-request:
// /readyz flips to 503 so balancers stop routing, the listener closes,
// in-flight requests run to completion (bounded by -drain-timeout), and
// only then are the mmap'd graph, index and R-tree files unmapped. A
// second signal aborts immediately.
//
// # Observability
//
// GET /metrics serves Prometheus text exposition (on by default;
// -metrics=false disables it): per-endpoint request counts and latency
// histograms, per-technique query counters, searcher-pool occupancy,
// batch stream accounting, index load/verify timings, and the
// draining/degraded serving state. The scrape is exempt from rate
// limiting, like the health probes. docs/METRICS.md documents every
// metric; docs/OPERATIONS.md is the runbook built on them.
//
// -pprof-addr starts net/http/pprof on its own listener (e.g.
// "localhost:6060"). The profiler is never mounted on the public mux —
// bind it to localhost or an internal interface only.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers on the -pprof-addr listener's mux
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
	"time"

	"roadnet"
	"roadnet/internal/binio"
	"roadnet/internal/core"
	"roadnet/internal/server"
)

func main() {
	var (
		preset      = flag.String("preset", "", "Table 1 dataset preset name")
		grPath      = flag.String("gr", "", "DIMACS .gr file")
		coPath      = flag.String("co", "", "DIMACS .co file")
		method      = flag.String("method", "ch", "technique: dijkstra, ch, tnr, silc, pcpd, alt, arcflags")
		indexPath   = flag.String("index", "", "index file: load if present, else build and save (ch/tnr/silc/pcpd)")
		graphPath   = flag.String("graph", "", "binary graph file: load if present, else parse -preset/-gr/-co and save")
		useMmap     = flag.Bool("mmap", roadnet.MmapSupported, "mmap flat index/graph files instead of reading them onto the heap")
		addr        = flag.String("addr", ":8080", "listen address")
		poolMax     = flag.Int("pool-max", 0, "cap on live searchers (0 = unbounded); requests block when all are busy")
		prewarm     = flag.Int("prewarm", runtime.GOMAXPROCS(0), "searchers to build before serving, so the first burst pays no allocations (guaranteed to stay warm only with -pool-max; unbounded pools may drop idle searchers at GC)")
		routeBudget = flag.Int64("route-vertex-budget", server.DefaultBatchRouteVertexBudget, "max total path vertices one batch-route request may stream (JSON responses over budget get 413; NDJSON responses truncate in-band)")
		reqTimeout  = flag.Duration("request-timeout", 0, "wall-clock bound per request (0 = none); requests over it abort with 503")
		rtreePath   = flag.String("rtree", "", "R-tree file: load (mmap) if present, else bulk-load from the graph and save")
		knnMax      = flag.Int("knn-max", server.DefaultMaxKNN, "max k accepted by /v1/knn")
		withinMax   = flag.Int("within-max", server.DefaultMaxWithinResults, "max neighbors one /v1/within response may carry (larger answers truncate)")
		verify      = flag.Bool("verify", true, "verify flat-file checksums at load; -verify=false keeps mapped startups O(#sections) and trusts the files: a query over damaged bytes may answer wrongly or fail with 500, so run spverify on them before boot")
		drainWait   = flag.Duration("drain-timeout", 15*time.Second, "max time to let in-flight requests finish after SIGTERM/SIGINT before closing their connections")
		rateLimit   = flag.Float64("rate-limit", 0, "per-client admission rate in requests/sec (0 = unlimited); clients over their budget get 429 with Retry-After")
		rateBurst   = flag.Int("rate-burst", 10, "per-client burst allowance when -rate-limit is set")
		withMetrics = flag.Bool("metrics", true, "serve Prometheus text metrics at GET /metrics")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); never exposed on the public mux")
	)
	flag.Parse()
	if *indexPath != "" && !slices.Contains(core.FileMethods(), core.Method(*method)) {
		fmt.Fprintf(os.Stderr, "-index: method %s has no file format; methods with one: %v\n", *method, core.FileMethods())
		os.Exit(2)
	}

	var openOpts []roadnet.OpenOption
	if !*verify {
		openOpts = append(openOpts, roadnet.WithoutVerify())
	}

	g, err := loadGraph(*preset, *grPath, *coPath, *graphPath, *useMmap, openOpts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("network: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	idx, loadInfo, idxVerified, degraded, err := buildOrLoad(roadnet.Method(*method), g, *indexPath, *useMmap, openOpts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st := idx.Stats()
	fmt.Printf("index: %s, %d KB", st.Method, st.IndexBytes/1024)
	if loadInfo == (roadnet.LoadInfo{}) { // built here; a load logged its own line
		fmt.Printf(", built in %v", st.BuildTime.Round(time.Millisecond))
	}
	fmt.Println()

	var reg *roadnet.MetricsRegistry
	if *withMetrics {
		reg = roadnet.NewMetricsRegistry()
		registerLoadMetrics(reg, loadInfo, st)
	}

	var poolOpts []core.PoolOption
	if *poolMax > 0 {
		poolOpts = append(poolOpts, core.WithMaxSearchers(*poolMax))
	}
	if reg != nil {
		poolOpts = append(poolOpts, core.WithMetrics(reg))
	}
	pool := core.NewPool(idx, poolOpts...)
	if n := pool.Prewarm(*prewarm); n > 0 {
		fmt.Printf("pool: pre-warmed %d searchers", n)
		if *poolMax > 0 {
			fmt.Printf(" (cap %d)", *poolMax)
		}
		fmt.Println()
	}

	loc, err := loadOrBuildLocator(g, *rtreePath, *useMmap, openOpts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// The readiness report's verified flag means: every byte this process
	// serves from is known-good — built in-process, or checksum-verified
	// off disk. A load under -verify=false clears it: those files are
	// trusted, not known-good.
	health := server.NewHealth()
	health.SetVerified(idxVerified && g.Backing().Verified() && loc.Tree().Backing().Verified())
	if degraded != "" {
		health.SetDegraded(degraded)
	}

	srvOpts := []server.Option{
		server.WithPool(pool),
		server.WithBatchRouteVertexBudget(*routeBudget),
		server.WithSpatialLocator(loc),
		server.WithSpatialLimits(*knnMax, *withinMax),
		server.WithHealth(health),
	}
	if *reqTimeout > 0 {
		srvOpts = append(srvOpts, server.WithRequestTimeout(*reqTimeout))
	}
	if *rateLimit > 0 {
		srvOpts = append(srvOpts, server.WithRateLimit(*rateLimit, *rateBurst))
	}
	if reg != nil {
		srvOpts = append(srvOpts, server.WithMetrics(reg))
	}
	srv := server.New(g, idx, srvOpts...)

	// The profiler gets its own listener and mux (net/http/pprof registers
	// on http.DefaultServeMux, which the public server never uses), so
	// heap dumps and CPU profiles are reachable only on the operator's
	// interface.
	if *pprofAddr != "" {
		go func() {
			fmt.Printf("pprof: listening on %s (keep this off public interfaces)\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	fmt.Printf("listening on %s, serving concurrently on up to %d cores\n", *addr, runtime.GOMAXPROCS(0))

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Drain: flip readiness first so balancers stop routing, then close the
	// listener and let in-flight requests run to completion. stop() restores
	// default signal handling, so a second signal aborts immediately.
	stop()
	health.SetDraining()
	fmt.Printf("shutdown: signal received, draining in-flight requests (up to %v)\n", *drainWait)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	code := 0
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "shutdown: drain incomplete: %v\n", err)
		code = 1
	}

	// Only after the last request finished is it safe to unmap the files
	// the serving data structures alias.
	for _, c := range []struct {
		name  string
		close func() error
	}{
		{"index", func() error { return roadnet.CloseIndex(idx) }},
		{"rtree", loc.Tree().Close},
		{"graph", g.Close},
	} {
		if err := c.close(); err != nil {
			fmt.Fprintf(os.Stderr, "shutdown: closing %s: %v\n", c.name, err)
			code = 1
		}
	}
	if code == 0 {
		fmt.Println("shutdown: drained cleanly")
	}
	os.Exit(code)
}

// buildOrLoad resolves the serving index. A readable index file is loaded
// (checksum-verified unless -verify=false); a stale one is rebuilt like a
// missing one; a corrupt one does not stop the boot — the server degrades
// to exact answers from a Dijkstra index and reports the reason on /readyz,
// keeping the endpoint answering while the operator rebuilds the file. The degraded return carries that reason
// ("" when healthy); verified reports whether the index bytes are
// known-good (built in-process, or checksum-verified off disk); info is
// the zero LoadInfo when the index was built rather than loaded.
func buildOrLoad(method roadnet.Method, g *roadnet.Graph, indexPath string, useMmap bool, openOpts []roadnet.OpenOption) (idx core.Index, info roadnet.LoadInfo, verified bool, degraded string, err error) {
	if indexPath != "" {
		if _, statErr := os.Stat(indexPath); statErr == nil {
			start := time.Now()
			idx, info, err := roadnet.LoadIndexFile(method, indexPath, g, useMmap, openOpts...)
			switch {
			case err == nil:
				logLoad("index", indexPath, info.Mapped, info.SizeBytes, start)
				return idx, info, info.Verified, "", nil
			case errors.Is(err, roadnet.ErrCorrupt):
				degraded = fmt.Sprintf("index file %s is corrupt, serving exact Dijkstra answers", indexPath)
				fmt.Fprintf(os.Stderr, "load: %v\ndegraded: falling back to a Dijkstra index; rebuild the file and restart to restore %s\n",
					err, method)
				fallback, buildErr := roadnet.NewIndex(roadnet.Dijkstra, g, roadnet.Config{})
				if buildErr != nil {
					return nil, roadnet.LoadInfo{}, false, "", buildErr
				}
				return fallback, roadnet.LoadInfo{}, true, degraded, nil
			case !stale("index", err):
				return nil, info, false, "", fmt.Errorf("load: %w", err)
			}
		}
	}
	idx, err = roadnet.NewIndex(method, g, roadnet.Config{})
	if err != nil {
		return nil, roadnet.LoadInfo{}, false, "", err
	}
	if indexPath != "" {
		err := saveCache("index", indexPath, func(w io.Writer) error { return roadnet.SaveIndex(idx, w) })
		if err != nil {
			return nil, roadnet.LoadInfo{}, false, "", err
		}
	}
	return idx, roadnet.LoadInfo{}, true, "", nil
}

// logLoad prints the line every cache load reports: what was loaded from
// where, over which path (mmap or heap), how long it took and how big it is.
func logLoad(kind, path string, mapped bool, sizeBytes int64, start time.Time) {
	fmt.Printf("load: %s %s via %s in %v (%d KB on disk)\n",
		kind, path, binio.Mode(mapped), time.Since(start).Round(time.Microsecond), sizeBytes/1024)
}

// stale reports whether a cache failed to load only because another build
// wrote it in another container version, and if so says that it will be
// rebuilt from its source and overwritten, like a missing cache.
func stale(kind string, err error) bool {
	if !errors.Is(err, roadnet.ErrVersion) {
		return false
	}
	fmt.Fprintf(os.Stderr, "stale: %v; rebuilding the %s from its source\n", err, kind)
	return true
}

// saveCache writes one cache file through binio.WriteFile, so the file
// appears under path complete or not at all, and reports it.
func saveCache(kind, path string, save func(io.Writer) error) error {
	if err := binio.WriteFile(path, save); err != nil {
		return fmt.Errorf("saving %s: %w", path, err)
	}
	fmt.Printf("saved %s to %s\n", kind, path)
	return nil
}

// registerLoadMetrics publishes the startup load path as gauges, set once:
// how big the serving index is, whether it came in over mmap or the heap,
// and how long the load and its checksum sweep took. For an index built
// in-process (zero LoadInfo) the size comes from the index stats and the
// load gauges stay zero.
func registerLoadMetrics(reg *roadnet.MetricsRegistry, info roadnet.LoadInfo, st roadnet.Stats) {
	bytes := float64(st.IndexBytes)
	if info.SizeBytes > 0 {
		bytes = float64(info.SizeBytes)
	}
	reg.Gauge("roadnet_index_bytes",
		"Size of the serving index: bytes on disk for a loaded index, in-memory footprint for a built one.").Set(bytes)
	mapped := 0.0
	if info.Mapped {
		mapped = 1
	}
	reg.Gauge("roadnet_index_mmap",
		"1 when the index file is mmap'd (zero-copy, page-cache resident), 0 for heap loads and built indexes.").Set(mapped)
	reg.Gauge("roadnet_index_load_seconds",
		"Wall-clock time of the startup index load (0 for an index built in-process).").Set(info.LoadTime.Seconds())
	reg.Gauge("roadnet_index_verify_seconds",
		"Portion of the load spent verifying checksums (0 when verification was skipped).").Set(info.VerifyTime.Seconds())
}

// loadOrBuildLocator resolves the spatial tier: the R-tree cache when
// present and of this build's version (mmap'd flat v2, O(#sections)
// startup), otherwise an STR bulk load over the graph's coordinates — saved
// back when -rtree is set.
func loadOrBuildLocator(g *roadnet.Graph, rtreePath string, useMmap bool, openOpts []roadnet.OpenOption) (*roadnet.SpatialLocator, error) {
	if rtreePath != "" {
		if _, err := os.Stat(rtreePath); err == nil {
			start := time.Now()
			t, err := roadnet.LoadRTreeFile(rtreePath, useMmap, openOpts...)
			if err == nil {
				loc, err := roadnet.NewSpatialLocatorFromTree(g, t)
				if err != nil {
					return nil, fmt.Errorf("%s does not match the graph: %w", rtreePath, err)
				}
				logLoad("rtree", rtreePath, t.Backing().Mapped(), t.Backing().SizeBytes(), start)
				return loc, nil
			}
			if !stale("rtree", err) {
				return nil, fmt.Errorf("load: %w", err)
			}
		}
	}
	loc := roadnet.NewSpatialLocator(g)
	if rtreePath != "" {
		if err := saveCache("rtree", rtreePath, loc.Tree().Save); err != nil {
			return nil, err
		}
	}
	return loc, nil
}

// loadGraph resolves the network: the binary graph cache when present and
// of this build's version (mmap'd flat CSR, skipping DIMACS text parsing),
// otherwise the preset or DIMACS source — saved back to the cache when
// -graph is set.
func loadGraph(preset, grPath, coPath, graphPath string, useMmap bool, openOpts []roadnet.OpenOption) (*roadnet.Graph, error) {
	if graphPath != "" {
		if _, err := os.Stat(graphPath); err == nil {
			start := time.Now()
			g, err := roadnet.LoadGraphFile(graphPath, useMmap, openOpts...)
			if err == nil {
				logLoad("graph", graphPath, g.Backing().Mapped(), g.Backing().SizeBytes(), start)
				return g, nil
			}
			if !stale("graph", err) {
				return nil, fmt.Errorf("load: %w", err)
			}
		}
	}
	g, err := parseGraph(preset, grPath, coPath)
	if err != nil {
		return nil, err
	}
	if graphPath != "" {
		if err := saveCache("graph", graphPath, g.Save); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func parseGraph(preset, grPath, coPath string) (*roadnet.Graph, error) {
	if preset != "" {
		return roadnet.GeneratePreset(preset)
	}
	if grPath == "" || coPath == "" {
		return nil, fmt.Errorf("need -preset, or both -gr and -co")
	}
	gr, err := os.Open(grPath)
	if err != nil {
		return nil, err
	}
	defer gr.Close()
	co, err := os.Open(coPath)
	if err != nil {
		return nil, err
	}
	defer co.Close()
	return roadnet.LoadDIMACS(gr, co)
}
