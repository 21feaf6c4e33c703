package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"roadnet"
	"roadnet/internal/core"
	"roadnet/internal/dijkstra"
)

// runOptions are the arguments of one run.
type runOptions struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// OutDir receives the span file of a traced run and, for serve_*
	// workloads, the server's cache directories.
	OutDir string
	// Spserve is the path of the spserve binary (serve_* workloads).
	Spserve string
}

// cell is one technique on one query set: the unit the paper plots.
type cell struct {
	method roadnet.Method
	set    string
	pairs  []roadnet.QueryPair
	want   []int64
	// roundUs holds the mean microseconds per query of each timed round,
	// as measured.
	roundUs []float64
}

// estimate is the cell's time per query: the median over rounds, each
// round's time multiplied by that round's speed factor first. Without speed
// factors it is the median as measured.
func (c *cell) estimate(speed []float64) float64 {
	if speed == nil {
		return median(c.roundUs)
	}
	vals := make([]float64, len(c.roundUs))
	for i, v := range c.roundUs {
		vals[i] = v * speed[i]
	}
	return median(vals)
}

// paperSetup generates the graph and builds every index, timing each step
// from outside. It is the paper's preprocessing.
type paperSetup struct {
	g       *roadnet.Graph
	idx     map[roadnet.Method]roadnet.Index
	total   time.Duration
	genTime time.Duration
	build   map[roadnet.Method]time.Duration
}

func setUpPaper(w workload) (*paperSetup, error) {
	ps := &paperSetup{idx: map[roadnet.Method]roadnet.Index{}, build: map[roadnet.Method]time.Duration{}}
	start := time.Now()
	g, err := roadnet.GeneratePreset(w.Preset)
	if err != nil {
		return nil, err
	}
	ps.g, ps.genTime = g, time.Since(start)
	for _, m := range w.Methods {
		t0 := time.Now()
		idx, err := roadnet.NewIndex(m, g, roadnet.Config{})
		if err != nil {
			return nil, fmt.Errorf("building %s on %s: %w", m, w.Preset, err)
		}
		ps.idx[m], ps.build[m] = idx, time.Since(t0)
	}
	ps.total = time.Since(start)
	return ps, nil
}

func runPaper(w workload, opt runOptions) (*result, error) {
	res := newResult()

	// Set-up, repeated: setup_s is the median.
	var ps *paperSetup
	var setups []float64
	repeats := w.Setups
	if opt.Trace {
		repeats = 1 // setup_s is not a traced run's to report
	}
	for i := 0; i < repeats; i++ {
		ps = nil
		runtime.GC() // the previous repetition's indexes are garbage now
		s, err := setUpPaper(w)
		if err != nil {
			return nil, err
		}
		ps = s
		setups = append(setups, s.total.Seconds())
	}
	res.set("setup_s", median(setups))
	g := ps.g
	res.set("gen.generate_ms", ms(ps.genTime))
	res.set("graph.vertices", float64(g.NumVertices()))
	res.set("graph.edges", float64(g.NumEdges()))
	for _, m := range w.Methods {
		res.set(string(m)+".build_s", ps.build[m].Seconds())
		res.set(string(m)+".index_bytes", float64(ps.idx[m].Stats().IndexBytes))
	}

	// Inputs from the seed, and the oracle's answers. Untimed.
	t0 := time.Now()
	sets, err := roadnet.LInfQuerySets(g, roadnet.WorkloadConfig{PairsPerSet: w.Pairs, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	res.set("workload.linf_sets_ms", ms(time.Since(t0)))
	var cells []*cell
	for _, qs := range sets {
		want := oracleDistances(g, qs.Pairs, runtime.GOMAXPROCS(0))
		for _, m := range w.Methods {
			n := len(qs.Pairs)
			if w.SlowMethods[m] && n > w.SlowPairs {
				n = w.SlowPairs
			}
			cells = append(cells, &cell{method: m, set: qs.Name, pairs: qs.Pairs[:n], want: want[:n]})
		}
	}

	// Every answer is checked once in full before anything is timed; this
	// pass also warms the indexes.
	for _, c := range cells {
		res.tally.merge(verifyCell(g, ps.idx[c.method], c, w.Paths))
	}

	// Timed rounds. Cells of one query set run back to back across the
	// techniques, so a slow stretch of the box falls on all of them alike,
	// and one sweep of the reference (calib.go) runs before every cell, so
	// it falls on the reference too. A round's speed factor is the
	// reference's nominal cost over the round's median sweep.
	kernel := newRefKernel()
	var speed, sweepUs []float64
	var rec *recorder
	if opt.Trace {
		rec = newRecorder(4096)
	}
	var tracedRounds, plainRounds []float64
	start := time.Now()
	budget := time.Duration(opt.Seconds * float64(time.Second))
	for round := 0; round < 3 || time.Since(start) < budget; round++ {
		// In a traced run every other round records spans, and the rounds
		// that do not are the measure of what recording costs.
		r := rec
		if round%2 == 1 {
			r = nil
		}
		roundStart := time.Now()
		parent := r.add("round", round, -1, 0, 0)
		sweeps := make([]float64, 0, len(cells))
		for _, c := range cells {
			sweeps = append(sweeps, us(kernel.timedSweep()))
			cs := time.Now()
			bad := timeCell(ps.idx[c.method], c, w.Paths)
			ce := time.Now()
			c.roundUs = append(c.roundUs, float64(ce.Sub(cs).Nanoseconds())/1e3/float64(len(c.pairs)))
			res.tally.attempted += len(c.pairs)
			res.tally.failed += bad
			r.add(string(c.method)+"/"+c.set, round, parent, cs.Sub(roundStart).Nanoseconds(), ce.Sub(roundStart).Nanoseconds())
		}
		took := time.Since(roundStart)
		sweepUs = append(sweepUs, median(sweeps))
		speed = append(speed, nominalSweepUs/sweepUs[round])
		if r != nil {
			r.spans[parent].End = took.Nanoseconds()
			tracedRounds = append(tracedRounds, took.Seconds())
		} else {
			plainRounds = append(plainRounds, took.Seconds())
		}
	}

	// The paper's figures: one curve per technique over Q1..Q10. Per-layer
	// times of a traced run stay as measured.
	if opt.Trace {
		speed = nil
	}
	var all, tails []float64
	var queries, totalUs float64
	perMethod := map[roadnet.Method][]float64{}
	for _, c := range cells {
		e := c.estimate(speed)
		all = append(all, e)
		perMethod[c.method] = append(perMethod[c.method], e)
		queries += float64(len(c.pairs))
		totalUs += float64(len(c.pairs)) * e
	}
	for _, m := range w.Methods {
		es := perMethod[m]
		worst := slices.Max(es)
		tails = append(tails, worst)
		k := min(3, len(es))
		res.set(string(m)+".near_us", mean(es[:k]))
		res.set(string(m)+".far_us", mean(es[len(es)-k:]))
		res.notef("%-9s query_us %9.3f  near %9.3f  far %9.3f  slowest set %9.3f  (geomean / Q1-Q3 / Q8-Q10 / max)",
			m, geomean(es), mean(es[:k]), mean(es[len(es)-k:]), worst)
	}
	res.set("query_us", geomean(all))
	res.set("query_tail_us", geomean(tails))
	res.set("throughput_qps", queries/totalUs*1e6)
	if !opt.Trace {
		var raw []float64
		var rawUs float64
		for _, c := range cells {
			e := c.estimate(nil)
			raw = append(raw, e)
			rawUs += float64(len(c.pairs)) * e
		}
		res.notef("as measured (median round): query_us %.4f, throughput_qps %.1f", geomean(raw), queries/rawUs*1e6)
	}
	res.set("calib.sweep_us", median(sweepUs))
	res.notef("rounds %d, cells %d, pairs per set %d; reference sweep median %.1f us (min %.1f, max %.1f), nominal %.0f",
		len(cells[0].roundUs), len(cells), w.Pairs, median(sweepUs), slices.Min(sweepUs), slices.Max(sweepUs), nominalSweepUs)

	if opt.Trace {
		res.set("trace.spans", float64(rec.len()))
		if len(plainRounds) > 0 {
			res.set("trace.overhead_share", median(tracedRounds)/median(plainRounds)-1)
		}
		paperLayerProbes(res, w, ps, sets)
		path := fmt.Sprintf("%s/trace-%s.json", opt.OutDir, w.Name)
		if err := rec.writeFile(path); err != nil {
			return nil, err
		}
		res.notef("spans written to %s", path)
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// verifyCell checks every answer of a cell against the oracle: distances
// for equality, paths for being walks along edges whose weights add up.
func verifyCell(g *roadnet.Graph, idx roadnet.Index, c *cell, paths bool) tally {
	var t tally
	for i, p := range c.pairs {
		if !paths {
			if d := idx.Distance(p.S, p.T); d != c.want[i] {
				t.fail("%s %s: distance %d->%d is %d, want %d", c.method, c.set, p.S, p.T, d, c.want[i])
			} else {
				t.ok()
			}
			continue
		}
		path, d := idx.ShortestPath(p.S, p.T)
		if d != c.want[i] {
			t.fail("%s %s: path length %d->%d is %d, want %d", c.method, c.set, p.S, p.T, d, c.want[i])
			continue
		}
		if err := checkPath(g, path, p.S, p.T, c.want[i]); err != nil {
			t.fail("%s %s: %v", c.method, c.set, err)
			continue
		}
		t.ok()
	}
	return t
}

// pathSink keeps the compiler from discarding the paths a timed cell asks for.
var pathSink int

// timeCell answers the cell's queries once, as the paper does: one
// goroutine, through the index's own query methods. The caller times it.
// It returns how many answers differ from the oracle's distance.
func timeCell(idx roadnet.Index, c *cell, paths bool) (bad int) {
	if paths {
		for i, p := range c.pairs {
			path, d := idx.ShortestPath(p.S, p.T)
			pathSink += len(path)
			if d != c.want[i] {
				bad++
			}
		}
		return bad
	}
	for i, p := range c.pairs {
		if idx.Distance(p.S, p.T) != c.want[i] {
			bad++
		}
	}
	return bad
}

// settledCounter is implemented by the searchers that report the size of
// their last search space, the paper's machine-independent cost measure.
type settledCounter interface{ SettledLast() int }

// paperLayerProbes measures what the timed rounds cannot see from outside:
// search-space sizes, the share of TNR queries answered from its tables,
// and CH's split between search and shortcut unpacking.
func paperLayerProbes(res *result, w workload, ps *paperSetup, sets []roadnet.QuerySet) {
	var pairs []roadnet.QueryPair
	for _, qs := range sets {
		n := len(qs.Pairs)
		if w.SlowPairs > 0 && n > w.SlowPairs {
			n = w.SlowPairs
		}
		pairs = append(pairs, qs.Pairs[:n]...)
	}
	for _, m := range w.Methods {
		idx := ps.idx[m]
		switch m {
		case roadnet.Dijkstra:
			bi := dijkstra.NewBidirectional(ps.g)
			var settled int
			for _, p := range pairs {
				settled += bi.Query(p.S, p.T).Settled
			}
			res.set("dijkstra.settled_per_query", float64(settled)/float64(len(pairs)))
		case roadnet.TNR:
			if t := core.TNROf(idx); t != nil {
				table, fallback := t.QueryCounts()
				if table+fallback > 0 {
					res.set("tnr.table_share", float64(table)/float64(table+fallback))
				}
			}
		}
		sr := idx.NewSearcher()
		if sc, ok := sr.(settledCounter); ok {
			var settled int
			for _, p := range pairs {
				sr.Distance(p.S, p.T)
				settled += sc.SettledLast()
			}
			res.set(string(m)+".settled_per_query", float64(settled)/float64(len(pairs)))
		}
		if m == roadnet.CH {
			chProbes(res, idx, pairs)
		}
	}
	genericProbes(res, ps.idx[w.Methods[0]])
}

// chProbes splits a CH path query into the search (OpenPath returns once
// the meeting vertex is known) and the unpacking of shortcuts (draining
// the iterator).
func chProbes(res *result, idx roadnet.Index, pairs []roadnet.QueryPair) {
	if h := core.HierarchyOf(idx); h != nil {
		res.set("ch.shortcuts", float64(h.NumShortcuts()))
	}
	sr := idx.NewSearcher()
	ctx := context.Background()
	var search, unpack time.Duration
	var vertices int
	for pass := 0; pass < 2; pass++ { // the first pass warms, the second counts
		search, unpack, vertices = 0, 0, 0
		for _, p := range pairs {
			t0 := time.Now()
			it, _, err := roadnet.OpenPath(ctx, sr, p.S, p.T)
			t1 := time.Now()
			if err != nil || it == nil {
				continue
			}
			for {
				if _, ok := it.Next(); !ok {
					break
				}
				vertices++
			}
			search += t1.Sub(t0)
			unpack += time.Since(t1)
		}
	}
	n := float64(len(pairs))
	res.set("ch.search_us", us(search)/n)
	res.set("ch.unpack_us", us(unpack)/n)
	res.set("ch.path_vertices_per_query", float64(vertices)/n)
}
