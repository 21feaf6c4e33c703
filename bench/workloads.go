package main

import (
	"fmt"

	"roadnet"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units; bench_test.go holds the two together.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports every one of them. The three query metrics
// are times at nominal speed (calib.go); setup_s is as measured.
//
//	setup_s        paper_*: graph generation plus every index build (the
//	               paper's preprocessing time). serve_*: first boot of
//	               spserve with an empty cache directory until /readyz
//	               answers 200. The median of the run's set-ups.
//	query_us       paper_*: geometric mean, over techniques and query sets
//	               Q1..Q10, of the mean time of one query. serve_*: median
//	               latency of one request over loopback TCP.
//	query_tail_us  paper_*: geometric mean over techniques of the mean query
//	               time on each technique's slowest query set. serve_*: 99th
//	               percentile of request latency.
//	throughput_qps paper_*: queries answered per second by one goroutine
//	               sweeping every technique over every query set once.
//	               serve_*: requests completed per second, closed loop, two
//	               connections.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_us", "us"},
	{"query_tail_us", "us"},
	{"throughput_qps", "1/s"},
}

// allMethods are the seven techniques in the order the paper presents them,
// followed by the two extensions.
var allMethods = []roadnet.Method{
	roadnet.Dijkstra, roadnet.CH, roadnet.TNR, roadnet.SILC, roadnet.PCPD, roadnet.ALT, roadnet.ArcFlags,
}

// perLayer are the metrics of single layers, measured in the traced run. A
// layer that a workload does not use reports 0 there: it did no work.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"gen.generate_ms", "ms"},
		{"workload.linf_sets_ms", "ms"},
		{"graph.vertices", "count"},
		{"graph.edges", "count"},
	}
	for _, m := range allMethods {
		defs = append(defs,
			metricDef{string(m) + ".build_s", "s"},
			metricDef{string(m) + ".index_bytes", "bytes"},
			metricDef{string(m) + ".near_us", "us"},
			metricDef{string(m) + ".far_us", "us"},
		)
	}
	return append(defs,
		metricDef{"dijkstra.settled_per_query", "count"},
		metricDef{"ch.settled_per_query", "count"},
		metricDef{"alt.settled_per_query", "count"},
		metricDef{"arcflags.settled_per_query", "count"},
		metricDef{"tnr.table_share", "ratio"},
		metricDef{"ch.shortcuts", "count"},
		metricDef{"ch.path_vertices_per_query", "count"},
		metricDef{"ch.search_us", "us"},
		metricDef{"ch.unpack_us", "us"},
		metricDef{"ch.many_to_many_us", "us"},
		metricDef{"pq.push_pop_ns", "ns"},
		metricDef{"core.pool_get_put_ns", "ns"},
		metricDef{"core.self_us", "us"},
		metricDef{"core.load_mmap_ms", "ms"},
		metricDef{"core.load_heap_ms", "ms"},
		metricDef{"core.save_ms", "ms"},
		metricDef{"binio.verify_ms", "ms"},
		metricDef{"rtree.build_ms", "ms"},
		metricDef{"rtree.nearest_us", "us"},
		metricDef{"server.handler_us", "us"},
		metricDef{"server.self_us", "us"},
		metricDef{"server.allocs_per_req", "count"},
		metricDef{"server.alloc_bytes_per_req", "bytes"},
		metricDef{"server.resp_bytes_per_req", "bytes"},
		metricDef{"transport.roundtrip_us", "us"},
		metricDef{"transport.self_us", "us"},
		metricDef{"spserve.first_boot_s", "s"},
		metricDef{"spserve.restart_ready_ms", "ms"},
		metricDef{"spserve.peak_rss_mb", "MB"},
		metricDef{"spserve.cpu_us_per_req", "us"},
		metricDef{"spserve.index_file_mb", "MB"},
		metricDef{"loadgen.client_cpu_us_per_req", "us"},
		metricDef{"loadgen.window_p99_spread", "ratio"},
		metricDef{"trace.spans", "count"},
		metricDef{"trace.overhead_share", "ratio"},
		metricDef{"calib.sweep_us", "us"},
	)
}()

// workload describes one set of inputs. The sizes are part of the
// benchmark's definition: a run of any workload, set-up included, has to
// fit the driver's budget of about twenty seconds.
type workload struct {
	Name string
	Why  string

	// Preset is the internal/gen dataset the workload runs on.
	Preset string
	// Setups is how many times set-up is repeated; setup_s is their median.
	Setups int

	// paper_* workloads: the techniques, whether queries ask for paths, the
	// number of pairs per query set, and the smaller number the slow
	// techniques (SlowMethods) get.
	Methods     []roadnet.Method
	Paths       bool
	Pairs       int
	SlowMethods map[roadnet.Method]bool
	SlowPairs   int

	// serve_* workloads: the request kind and the number of distinct
	// requests, which the load generator cycles through.
	Serve    bool
	Kind     requestKind
	Requests int
	// Replay is how many requests the traced run replays layer by layer.
	Replay int
}

var workloads = []workload{
	{
		Name:   "paper_dist_small",
		Why:    "NH, all seven techniques, distance queries on Q1..Q10: the paper's protocol on the largest preset where all seven preprocess; fits in L2, so algorithm and heap changes show, memory layout does not",
		Preset: "NH", Setups: 2, Methods: allMethods, Pairs: 500,
	},
	{
		Name:   "paper_path_small",
		Why:    "same graph, indexes and pairs as paper_dist_small but ShortestPath: a gain for distance-only queries that costs path queries shows here",
		Preset: "NH", Setups: 2, Methods: allMethods, Pairs: 500, Paths: true,
	},
	{
		Name:   "paper_dist_large",
		Why:    "CA, ch against dijkstra and alt: index plus search state exceed L2, so CH record layout, rank renumbering and heap arity can show; setup_s is the CH build",
		Preset: "CA", Setups: 3, Methods: []roadnet.Method{roadnet.Dijkstra, roadnet.CH, roadnet.ALT}, Pairs: 200,
		SlowMethods: map[roadnet.Method]bool{roadnet.Dijkstra: true, roadnet.ALT: true}, SlowPairs: 100,
	},
	{
		Name:   "serve_distance",
		Why:    "live spserve (CA, ch) over loopback, GET /v1/distance, zipf origins, near-weighted destinations: search is ~13% of a round trip, so HTTP work shows and a CH speed-up should not",
		Preset: "CA", Setups: 3, Serve: true, Kind: kindDistance, Requests: 4096, Replay: 2000,
	},
	{
		Name:   "serve_route",
		Why:    "same server, GET /v1/route by coordinates on far pairs: R-tree snap, search, shortcut unpacking, coordinates, JSON encoding and ~3 KB socket writes share the time",
		Preset: "CA", Setups: 3, Serve: true, Kind: kindRoute, Requests: 1024, Replay: 600,
	},
	{
		Name:   "serve_batch",
		Why:    "same server, POST /v1/batch/distance, 16x16 matrices inside one region: body decoding, CH bucket many-to-many and the stream writer, the core and server used a third way",
		Preset: "CA", Setups: 3, Serve: true, Kind: kindBatch, Requests: 256, Replay: 256,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload to the smallest preset and a handful of
// operations, for the tests that keep every workload running end to end.
func (w workload) smoke() workload {
	w.Preset = "DE"
	w.Setups = 1
	if w.Serve {
		w.Requests, w.Replay = 48, 24
	} else {
		w.Pairs, w.SlowPairs = 12, 6
	}
	return w
}

// result is what one run measured: metric values by name, the operation
// count, and lines for the human reading the log.
type result struct {
	values map[string]float64
	tally  tally
	notes  []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}
