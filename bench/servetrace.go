package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"roadnet"
	"roadnet/internal/binio"
	"roadnet/internal/core"
	"roadnet/internal/server"
)

// The traced run of a serve_* workload replays the first requests of the
// workload's list, one at a time, at four boundaries:
//
//	transport   the request over a socket to the live spserve
//	server      the same request into server.Handler() in this process
//	core        the query the handler makes of its core.Pool
//	ch.*        the search (and unpacking) a pooled searcher runs
//
// Nothing inside the program is instrumented: each boundary is a call into
// a layer's public functions, timed from here. The boundaries of a request
// are replayed one after another and recorded as nested spans aligned to
// the parent's start, so a layer's self time is its span minus its
// children, and the self times of a request add up to its round trip.

// replayChunk is how many requests one boundary replays before the next
// boundary replays the same ones. Chunks keep the boundaries close in time,
// so drift of the box falls on all of them, and far enough apart that none
// finds the previous one's query still in cache.
const replayChunk = 100

// discardWriter is the http.ResponseWriter of the in-process replay: it
// counts the body and drops it.
type discardWriter struct {
	h      http.Header
	status int
	bytes  int64
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(s int)   { w.status = s }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	return len(p), nil
}
func (w *discardWriter) Flush() {}

func (w *discardWriter) reset() {
	clear(w.h)
	w.status = http.StatusOK
}

func (r *request) httpRequest() *http.Request {
	// The URL and method come from the benchmark's own generators.
	req, err := http.NewRequest(r.Method, "http://bench"+r.Path, strings.NewReader(r.Body))
	if err != nil {
		panic(err)
	}
	if r.Method == "POST" {
		req.Header.Set("Content-Type", "application/json")
	}
	return req
}

func (sc *serveContext) traced(res *result) error {
	g, w := sc.g, sc.w
	idxPath := filepath.Join(sc.dir, "ch.idx")
	ctx := context.Background()
	res.set("graph.vertices", float64(g.NumVertices()))
	res.set("graph.edges", float64(g.NumEdges()))

	// The layers under the socket, assembled in this process from the files
	// the server itself is running on.
	if err := loadProbes(res, idxPath, g); err != nil {
		return err
	}
	idx, _, err := roadnet.LoadIndexFile(roadnet.CH, idxPath, g, true)
	if err != nil {
		return err
	}
	defer roadnet.CloseIndex(idx)
	res.set("ch.index_bytes", float64(idx.Stats().IndexBytes))
	hier := core.HierarchyOf(idx)
	if hier == nil {
		return fmt.Errorf("%s did not load as a contraction hierarchy", idxPath)
	}
	res.set("ch.shortcuts", float64(hier.NumShortcuts()))
	reg := roadnet.NewMetricsRegistry()
	pool := roadnet.NewPool(idx, roadnet.WithMetrics(reg))
	handler := server.New(g, idx, server.WithPool(pool), server.WithSpatialLocator(sc.loc), server.WithMetrics(reg)).Handler()
	searcher := idx.NewSearcher()

	n := min(w.Replay, len(sc.reqs))
	c, err := dial(sc.proc.addr)
	if err != nil {
		return err
	}
	defer c.close()

	// durations[b][i] is how long request i took at boundary b.
	const (
		bTransport = iota
		bServer
		bSnap
		bCore
		bSearch
		bUnpack
		bMany
		numBoundaries
	)
	var dur [numBoundaries][]time.Duration
	for b := range dur {
		dur[b] = make([]time.Duration, n)
	}
	dw := &discardWriter{h: http.Header{}}
	var settled, pathVertices int
	counter, _ := searcher.(settledCounter)
	for lo := 0; lo < n; lo += replayChunk {
		hi := min(lo+replayChunk, n)
		for i := lo; i < hi; i++ {
			t0 := time.Now()
			err := sc.tgt.roundTrip(c, i)
			dur[bTransport][i] = time.Since(t0)
			res.tally.check(err)
		}
		for i := lo; i < hi; i++ {
			req := sc.reqs[i].httpRequest()
			dw.reset()
			t0 := time.Now()
			handler.ServeHTTP(dw, req)
			dur[bServer][i] = time.Since(t0)
			if dw.status != http.StatusOK {
				res.tally.fail("in-process %s: status %d", sc.reqs[i].Path, dw.status)
			} else {
				res.tally.ok()
			}
		}
		for i := lo; i < hi; i++ {
			r := &sc.reqs[i]
			switch r.Kind {
			case kindDistance:
				t0 := time.Now()
				d, err := pool.DistanceContext(ctx, r.S, r.T)
				dur[bCore][i] = time.Since(t0)
				res.tally.check(sameDistance("core.Pool", r, d, err))
			case kindRoute:
				t0 := time.Now()
				s, t := sc.loc.NearestVertex(r.From), sc.loc.NearestVertex(r.To)
				t1 := time.Now()
				sr, err := pool.GetContext(ctx)
				if err != nil {
					return err
				}
				it, d, err := roadnet.OpenPath(ctx, sr, s, t)
				for it != nil {
					if _, ok := it.Next(); !ok {
						break
					}
				}
				pool.Put(sr)
				dur[bSnap][i], dur[bCore][i] = t1.Sub(t0), time.Since(t1)
				if s != r.S || t != r.T {
					err = fmt.Errorf("snap %s: got %d,%d, want %d,%d", r.Path, s, t, r.S, r.T)
				}
				res.tally.check(sameDistance("core.Pool", r, d, err))
			default:
				t0 := time.Now()
				table, err := pool.BatchDistance(ctx, r.Sources, r.Targets)
				dur[bCore][i] = time.Since(t0)
				res.tally.check(sameMatrix("core.Pool", r, table, err))
			}
		}
		for i := lo; i < hi; i++ {
			r := &sc.reqs[i]
			switch r.Kind {
			case kindDistance:
				t0 := time.Now()
				d, err := searcher.DistanceContext(ctx, r.S, r.T)
				dur[bSearch][i] = time.Since(t0)
				res.tally.check(sameDistance("searcher", r, d, err))
			case kindRoute:
				t0 := time.Now()
				it, d, err := roadnet.OpenPath(ctx, searcher, r.S, r.T)
				t1 := time.Now()
				for it != nil {
					if _, ok := it.Next(); !ok {
						break
					}
					pathVertices++
				}
				dur[bSearch][i], dur[bUnpack][i] = t1.Sub(t0), time.Since(t1)
				res.tally.check(sameDistance("searcher", r, d, err))
			default:
				t0 := time.Now()
				table, err := hier.ManyToManyContext(ctx, r.Sources, r.Targets)
				dur[bMany][i] = time.Since(t0)
				res.tally.check(sameMatrix("hierarchy", r, table, err))
			}
			if counter != nil && r.Kind != kindBatch {
				settled += counter.SettledLast()
			}
		}
	}

	// One request's spans, nested as the calls nest inside the program.
	nest := func(rec *recorder, req int, d func(b int) int64) {
		root := rec.add("transport", req, -1, 0, d(bTransport))
		srv := rec.add("server", req, root, 0, d(bServer))
		at := int64(0)
		if w.Kind == kindRoute {
			rec.add("rtree.snap", req, srv, 0, d(bSnap))
			at = d(bSnap)
		}
		cr := rec.add("core", req, srv, at, at+d(bCore))
		switch w.Kind {
		case kindBatch:
			rec.add("ch.many_to_many", req, cr, at, at+d(bMany))
		case kindRoute:
			rec.add("ch.search", req, cr, at, at+d(bSearch))
			rec.add("ch.unpack", req, cr, at+d(bSearch), at+d(bSearch)+d(bUnpack))
		default:
			rec.add("ch.search", req, cr, at, at+d(bSearch))
		}
	}
	rec := newRecorder(6 * n)
	for i := 0; i < n; i++ {
		nest(rec, i, func(b int) int64 { return dur[b][i].Nanoseconds() })
	}
	// The budget is the same nesting over each boundary's median. A
	// request's boundaries were timed in separate replays, so subtracting
	// child from parent means something for the typical request, not
	// request by request; and medians keep a garbage collection that fell
	// on one boundary's replay from being billed to that layer.
	budget := newRecorder(8)
	nest(budget, 0, func(b int) int64 {
		sorted := make([]int64, n)
		for i, d := range dur[b] {
			sorted[i] = d.Nanoseconds()
		}
		slices.Sort(sorted)
		return durationQuantile(sorted, 0.5)
	})
	sum := budget.summarize()
	res.set("transport.roundtrip_us", sum["transport"].MeanUs)
	res.set("transport.self_us", sum["transport"].SelfUs)
	res.set("server.handler_us", sum["server"].MeanUs)
	res.set("server.self_us", sum["server"].SelfUs)
	res.set("core.self_us", sum["core"].SelfUs)
	res.set("ch.search_us", sum["ch.search"].MeanUs)
	res.set("ch.unpack_us", sum["ch.unpack"].MeanUs)
	res.set("ch.many_to_many_us", sum["ch.many_to_many"].MeanUs)
	if w.Kind == kindRoute {
		res.set("rtree.nearest_us", sum["rtree.snap"].MeanUs/2)
		res.set("ch.path_vertices_per_query", float64(pathVertices)/float64(n))
	}
	if counter != nil && w.Kind != kindBatch {
		res.set("ch.settled_per_query", float64(settled)/float64(n))
	}
	selfSum := sum["transport"].SelfUs + sum["server"].SelfUs + sum["rtree.snap"].SelfUs + sum["core"].SelfUs +
		sum["ch.search"].SelfUs + sum["ch.unpack"].SelfUs + sum["ch.many_to_many"].SelfUs
	rt := sum["transport"].MeanUs
	res.notef("budget of one round trip over %d requests (self times, us):", n)
	for _, name := range []string{"transport", "server", "rtree.snap", "core", "ch.search", "ch.unpack", "ch.many_to_many"} {
		if s, ok := sum[name]; ok {
			res.notef("  %-16s %9.2f  %5.1f%%", name, s.SelfUs, 100*s.SelfUs/rt)
		}
	}
	res.notef("  %-16s %9.2f  against a round trip of %.2f (%+.1f%%)", "sum", selfSum, rt, 100*(selfSum/rt-1))
	res.notef("predictions: client and server share %d cores, so freeing server CPU also speeds the client and a gain can exceed the layer's share; allocations move the tail before the median; layout changes move paper_dist_large and not paper_*_small", runtime.NumCPU())

	// What the handler allocates and writes, from a pass of its own.
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = sc.reqs[i].httpRequest()
	}
	dw.bytes = 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, req := range reqs {
		dw.reset()
		handler.ServeHTTP(dw, req)
	}
	runtime.ReadMemStats(&m1)
	res.set("server.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/float64(n))
	res.set("server.alloc_bytes_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
	res.set("server.resp_bytes_per_req", float64(dw.bytes)/float64(n))

	// What tracing costs: the same sequential round trips with and without
	// a recorder in the loop, in alternating chunks, every request both ways.
	var lap [2]time.Duration
	scratch := newRecorder(n)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			k := (i/replayChunk + pass) % 2
			r := scratch
			if k == 0 {
				r = nil
			}
			t0 := time.Now()
			err := sc.tgt.roundTrip(c, i)
			r.add("transport", i, -1, 0, time.Since(t0).Nanoseconds())
			lap[k] += time.Since(t0)
			res.tally.check(err)
		}
	}
	res.set("trace.overhead_share", lap[1].Seconds()/lap[0].Seconds()-1)
	res.set("trace.spans", float64(rec.len()))

	genericProbes(res, idx)

	// A short closed-loop phase for the process-level numbers, without the
	// reference: per-layer times are as measured. What the reference costs
	// right after says what kind of minute it was.
	ph, err := sc.tgt.drive(time.Duration(sc.opt.Seconds/2*float64(time.Second)), 0, sc.proc.cmd.Process.Pid, false)
	if err != nil {
		return err
	}
	res.tally.merge(ph.tally)
	sc.processMetrics(res, ph)
	kernel := newRefKernel()
	var sweeps []float64
	for i := 0; i < 100; i++ {
		sweeps = append(sweeps, us(kernel.timedSweep()))
	}
	res.set("calib.sweep_us", median(sweeps))

	path := fmt.Sprintf("%s/trace-%s.json", sc.opt.OutDir, w.Name)
	if err := rec.writeFile(path); err != nil {
		return err
	}
	res.notef("spans written to %s", path)
	return nil
}

func sameDistance(layer string, r *request, d int64, err error) error {
	if err != nil {
		return fmt.Errorf("%s %d->%d: %v", layer, r.S, r.T, err)
	}
	if d != r.WantDist {
		return fmt.Errorf("%s %d->%d: got %d, want %d", layer, r.S, r.T, d, r.WantDist)
	}
	return nil
}

func sameMatrix(layer string, r *request, table [][]int64, err error) error {
	if err != nil {
		return fmt.Errorf("%s batch: %v", layer, err)
	}
	for i := range r.WantMatrix {
		for j, want := range r.WantMatrix[i] {
			if len(table) <= i || len(table[i]) <= j || table[i][j] != want {
				return fmt.Errorf("%s batch: cell (%d,%d) differs from the oracle", layer, i, j)
			}
		}
	}
	return nil
}

// loadProbes times the ways an index gets between disk and memory, on the
// index file the live server is running from.
func loadProbes(res *result, idxPath string, g *roadnet.Graph) error {
	load := func(mmap bool) (float64, error) {
		var times []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			idx, _, err := roadnet.LoadIndexFile(roadnet.CH, idxPath, g, mmap)
			if err != nil {
				return 0, err
			}
			times = append(times, ms(time.Since(t0)))
			if err := roadnet.CloseIndex(idx); err != nil {
				return 0, err
			}
		}
		return median(times), nil
	}
	v, err := load(true)
	if err != nil {
		return err
	}
	res.set("core.load_mmap_ms", v)
	if v, err = load(false); err != nil {
		return err
	}
	res.set("core.load_heap_ms", v)

	f, err := binio.OpenFlat(idxPath, true, binio.WithoutVerify())
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = f.Verify()
	res.set("binio.verify_ms", ms(time.Since(t0)))
	f.Close()
	if err != nil {
		return err
	}

	idx, _, err := roadnet.LoadIndexFile(roadnet.CH, idxPath, g, false)
	if err != nil {
		return err
	}
	defer roadnet.CloseIndex(idx)
	out, err := os.Create(idxPath + ".resaved")
	if err != nil {
		return err
	}
	defer os.Remove(out.Name())
	t0 = time.Now()
	err = roadnet.SaveIndex(idx, out)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	res.set("core.save_ms", ms(time.Since(t0)))
	return err
}

// processMetrics turns a closed-loop phase into the process-level layer
// metrics of a traced run.
func (sc *serveContext) processMetrics(res *result, ph *loadPhase) {
	var p99s []float64
	for i, w := range ph.byWindow(window) {
		p99s = append(p99s, us(w.p99))
		res.notef("window %2d: %6d requests, p50 %8.1f us, p99 %8.1f us, %8.0f 1/s", i, w.n, us(w.p50), us(w.p99), w.qps)
	}
	n := float64(len(ph.samples))
	res.set("spserve.cpu_us_per_req", us(ph.serverCPU)/n)
	res.set("loadgen.client_cpu_us_per_req", us(ph.clientCPU)/n)
	res.set("spserve.peak_rss_mb", peakRSSMB(sc.proc.cmd.Process.Pid))
	if m := median(p99s); m > 0 {
		res.set("loadgen.window_p99_spread", (quantile(p99s, 1)-quantile(p99s, 0))/m)
	}
}
