package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"roadnet/internal/graph"
	"roadnet/internal/metrics"
)

// Pool hands out reusable Searchers over one shared Index so any number of
// goroutines can query concurrently.
//
// An unbounded pool (the default) is backed by sync.Pool: searchers are
// created on demand, recycled across queries, and dropped under memory
// pressure, so steady-state operation allocates nothing on the distance
// hot path.
//
// A bounded pool (WithMaxSearchers) never creates more than the configured
// number of searchers, capping the memory spent on the O(n) per-searcher
// arrays on very large graphs: once the cap is reached, Get blocks until a
// searcher is returned. Bounded searchers are retained for the lifetime of
// the pool, never dropped.
//
// Prewarm builds searchers ahead of the first request burst, so that burst
// does not pay one O(n)-array allocation per concurrent request.
//
// Check a searcher out (Get/Put) for any query; DistanceContext and
// BatchDistance wrap the checkout around one distance query or one matrix.
type Pool struct {
	idx  Index
	pool sync.Pool

	// Bounded mode (max > 0): idle holds returned searchers and created
	// counts the live total, never exceeding max.
	max     int64
	idle    chan Searcher
	created atomic.Int64

	// Occupancy instrumentation, maintained unconditionally: plain atomic
	// adds on the Get/Put paths, so the zero-allocation guarantee of the
	// CH distance hot path is untouched (see pool_bench_test.go).
	inUse     atomic.Int64
	waiting   atomic.Int64
	prewarmed atomic.Int64

	// waitObs, when set (WithMetrics), observes how long a Get blocked for
	// a free searcher on an exhausted bounded pool. The unblocked fast
	// paths never call it — their wait is zero by construction.
	waitObs atomic.Value // func(time.Duration)

	// reg defers metric registration until after all options have applied,
	// so WithMetrics composes with WithMaxSearchers in any order.
	reg *metrics.Registry
}

// PoolOption configures NewPool.
type PoolOption func(*Pool)

// WithMaxSearchers bounds the pool to at most n live searchers; Get blocks
// when all are checked out. n <= 0 leaves the pool unbounded.
func WithMaxSearchers(n int) PoolOption {
	return func(p *Pool) {
		if n > 0 {
			p.max = int64(n)
		}
	}
}

// WithMetrics registers the pool's occupancy instrumentation with reg:
// gauges for checked-out searchers, goroutines waiting on an exhausted
// bounded pool, the prewarmed count and the configured cap, plus a
// histogram of how long Get blocked (see docs/METRICS.md). Register at
// most one pool per registry — the metric names are fixed.
func WithMetrics(reg *metrics.Registry) PoolOption {
	return func(p *Pool) { p.reg = reg }
}

// NewPool returns a searcher pool over idx.
func NewPool(idx Index, opts ...PoolOption) *Pool {
	p := &Pool{idx: idx}
	for _, opt := range opts {
		opt(p)
	}
	if p.max > 0 {
		p.idle = make(chan Searcher, p.max)
	} else {
		p.pool.New = func() any { return idx.NewSearcher() }
	}
	if p.reg != nil {
		p.registerMetrics(p.reg)
	}
	return p
}

// registerMetrics wires the occupancy gauges and the get-wait histogram.
// The gauges read the pool's live atomics at scrape time; nothing is
// added to the query hot path beyond the unconditional atomic counters.
func (p *Pool) registerMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("roadnet_pool_in_use",
		"Searchers currently checked out of the pool.",
		func() float64 { return float64(p.InUse()) })
	reg.GaugeFunc("roadnet_pool_waiting",
		"Goroutines blocked in Get waiting for a free searcher (bounded pools only).",
		func() float64 { return float64(p.Waiting()) })
	reg.GaugeFunc("roadnet_pool_prewarmed",
		"Searchers built ahead of traffic by Prewarm.",
		func() float64 { return float64(p.Prewarmed()) })
	reg.GaugeFunc("roadnet_pool_max_searchers",
		"Configured cap on live searchers (0 = unbounded).",
		func() float64 { return float64(p.MaxSearchers()) })
	h := reg.Histogram("roadnet_pool_get_wait_seconds",
		"Time a request waited for a searcher on an exhausted bounded pool. Unblocked checkouts are not observed.",
		metrics.LatencyBuckets)
	p.waitObs.Store(func(d time.Duration) { h.Observe(d.Seconds()) })
}

// InUse reports how many searchers are currently checked out.
func (p *Pool) InUse() int { return int(p.inUse.Load()) }

// Waiting reports how many goroutines are blocked in Get waiting for a
// searcher. Always zero on an unbounded pool.
func (p *Pool) Waiting() int { return int(p.waiting.Load()) }

// Prewarmed reports how many searchers Prewarm has built.
func (p *Pool) Prewarmed() int { return int(p.prewarmed.Load()) }

// Index returns the shared index the pool serves.
func (p *Pool) Index() Index { return p.idx }

// MaxSearchers returns the configured cap, or 0 when unbounded.
func (p *Pool) MaxSearchers() int { return int(p.max) }

// Get checks a searcher out of the pool. Return it with Put when done. On
// an unbounded pool a searcher that is never returned is simply garbage
// collected; on a bounded pool it permanently consumes one slot of the
// cap, and Get blocks when every searcher is checked out.
func (p *Pool) Get() Searcher {
	s, _ := p.GetContext(context.Background())
	return s
}

// GetContext is Get with cancellation: on a bounded pool whose searchers
// are all checked out, the wait for a free searcher aborts with ctx's
// error, so requests whose clients have already gone away do not queue
// behind live ones. On an unbounded pool (which never blocks) only an
// already-cancelled context aborts.
func (p *Pool) GetContext(ctx context.Context) (Searcher, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.max > 0 {
		select {
		case s := <-p.idle:
			p.inUse.Add(1)
			return s, nil
		default:
		}
		if p.created.Add(1) <= p.max {
			p.inUse.Add(1)
			return p.idx.NewSearcher(), nil
		}
		p.created.Add(-1)
		// The pool is exhausted: this request will block until a searcher
		// comes back. The wait is the pool-saturation signal operators
		// alert on, so it is both gauged (waiting) and, when metrics are
		// wired, timed into the get-wait histogram.
		obs, _ := p.waitObs.Load().(func(time.Duration))
		var start time.Time
		if obs != nil {
			start = time.Now()
		}
		p.waiting.Add(1)
		defer p.waiting.Add(-1)
		select {
		case s := <-p.idle:
			if obs != nil {
				obs(time.Since(start))
			}
			p.inUse.Add(1)
			return s, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s := p.pool.Get().(Searcher)
	p.inUse.Add(1)
	return s, nil
}

// Put returns a searcher obtained from Get to the pool.
func (p *Pool) Put(s Searcher) {
	p.inUse.Add(-1)
	p.park(s)
}

// park returns a searcher to the idle set without touching the occupancy
// accounting — the path shared by Put (which pairs with a Get) and
// Prewarm (whose searchers were never checked out).
func (p *Pool) park(s Searcher) {
	if p.max > 0 {
		p.idle <- s
		return
	}
	p.pool.Put(s)
}

// Prewarm creates up to n searchers ahead of time and parks them in the
// pool, so the first burst of concurrent requests does not pay one
// O(n)-array allocation each. On a bounded pool, n is clamped to the
// remaining headroom under the cap. It returns how many searchers were
// created.
//
// A bounded pool retains warmed searchers forever; an unbounded pool parks
// them in a sync.Pool, where the garbage collector may reclaim them after
// roughly two idle GC cycles — prewarming an unbounded pool helps a burst
// that arrives promptly, but only a bounded pool guarantees the warm set
// survives an idle period.
func (p *Pool) Prewarm(n int) int {
	warmed := make([]Searcher, 0, n)
	for i := 0; i < n; i++ {
		if p.max > 0 && p.created.Add(1) > p.max {
			p.created.Add(-1)
			break
		}
		warmed = append(warmed, p.idx.NewSearcher())
	}
	// Park them only after creating all of them: an immediate Put-per-Get
	// would let one searcher be handed back out and defeat the warming.
	// park, not Put: these searchers were never checked out, so they must
	// not drive the occupancy gauge negative.
	for _, s := range warmed {
		p.park(s)
	}
	p.prewarmed.Add(int64(len(warmed)))
	return len(warmed)
}

// DistanceContext answers one distance query on a pooled searcher with
// cancellation (see the Searcher cancellation contract). The searcher is
// returned to the pool even when the query aborts — an aborted searcher
// remains valid for reuse.
func (p *Pool) DistanceContext(ctx context.Context, s, t graph.VertexID) (int64, error) {
	sr, err := p.GetContext(ctx)
	if err != nil {
		return graph.Infinity, err
	}
	d, err := sr.DistanceContext(ctx, s, t)
	p.Put(sr)
	return d, err
}

// BatchDistance computes the full sources×targets distance matrix.
// table[i][j] is dist(sources[i], targets[j]), graph.Infinity for
// unreachable pairs. It is answered one of two ways:
//   - CH: the bucket many-to-many algorithm of Knopp et al. — one upward
//     search per endpoint instead of |S|×|T| point-to-point queries (used
//     when both lists have more than one element; smaller shapes gain
//     nothing from the bucket pass). 13× the per-pair loop at 16×16 and
//     41–44× at 64×64 on random CA vertices, 5× on the regional 16×16
//     batches of the benchmark's serve_batch workload
//     (BenchmarkManyToManyVsPerPair in internal/ch).
//   - Everything else: per-pair DistanceContext on one pooled searcher.
//
// Both poll ctx at bounded intervals; on cancellation the partial work is
// discarded and ctx's error returned. Both return matrices bit-identical
// to per-pair queries.
//
// Every batch holds one pool slot for its duration, so a bounded pool's cap
// also bounds how many batch matrices are computed at once. For the CH
// many-to-many, which uses none of the searcher's state, that cap is what
// bounds memory: its scratch lives in a sync.Pool on the ch.Hierarchy, one
// object per batch in flight, and the garbage collector reclaims the idle
// ones.
func (p *Pool) BatchDistance(ctx context.Context, sources, targets []graph.VertexID) ([][]int64, error) {
	sr, err := p.GetContext(ctx)
	if err != nil {
		return nil, err
	}
	defer p.Put(sr)
	if h := HierarchyOf(p.idx); h != nil && len(sources) > 1 && len(targets) > 1 {
		return h.ManyToManyContext(ctx, sources, targets)
	}
	table := make([][]int64, len(sources))
	for i, s := range sources {
		row := make([]int64, len(targets))
		for j, t := range targets {
			// DistanceContext polls ctx itself, at worst every
			// cancel.Interval steps of its query loop.
			d, err := sr.DistanceContext(ctx, s, t)
			if err != nil {
				return nil, err
			}
			row[j] = d
		}
		table[i] = row
	}
	return table, nil
}
