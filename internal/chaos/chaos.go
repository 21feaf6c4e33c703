package chaos

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"roadnet/internal/core"
	"roadnet/internal/graph"
)

// ErrInjected is the error a FailNext-armed query returns.
var ErrInjected = errors.New("chaos: injected query failure")

// FlakyIndex wraps a core.Index so tests can inject faults into the
// queries its searchers answer. The fault budget is shared across all
// searchers (and so across all request goroutines of a server built over
// the index), which is the point: a test arms one fault and asserts the
// process survives whichever request draws it.
//
// The wrapper deliberately does not forward the optional batch
// acceleration interface — faulty deployments degrade to the simple code
// path, and so do these tests.
type FlakyIndex struct {
	core.Index
	panics atomic.Int64 // queries left to panic
	fails  atomic.Int64 // queries left to fail with ErrInjected
	delay  atomic.Int64 // per-query stall, nanoseconds
}

// Wrap returns idx with fault injection points around every searcher
// query. The zero state injects nothing and answers exactly like idx.
func Wrap(idx core.Index) *FlakyIndex { return &FlakyIndex{Index: idx} }

// PanicNext arms the next n queries (across all searchers) to panic —
// the "handler bug" scenario the server's recovery middleware must absorb.
func (f *FlakyIndex) PanicNext(n int) { f.panics.Add(int64(n)) }

// FailNext arms the next n context-carrying queries to return ErrInjected.
func (f *FlakyIndex) FailNext(n int) { f.fails.Add(int64(n)) }

// DelayEach stalls every query by d (0 disables), so tests can hold
// requests in flight while they shut the server down around them.
func (f *FlakyIndex) DelayEach(d time.Duration) { f.delay.Store(int64(d)) }

// NewSearcher wraps the underlying searcher with the injection points.
func (f *FlakyIndex) NewSearcher() core.Searcher {
	return &flakySearcher{Searcher: f.Index.NewSearcher(), idx: f}
}

// takeToken consumes one unit from a fault budget, if any remains.
func takeToken(c *atomic.Int64) bool {
	for {
		v := c.Load()
		if v <= 0 {
			return false
		}
		if c.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// inject runs the armed faults that apply to every query shape: the stall
// and the panic.
func (f *FlakyIndex) inject() {
	if d := f.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	if takeToken(&f.panics) {
		panic("chaos: injected searcher panic")
	}
}

// injectFailing is inject for the context-carrying queries, the only
// signatures that can express an error: it also draws an armed failure.
func (f *FlakyIndex) injectFailing() error {
	f.inject()
	if takeToken(&f.fails) {
		return ErrInjected
	}
	return nil
}

type flakySearcher struct {
	core.Searcher
	idx *FlakyIndex
}

func (s *flakySearcher) Distance(a, b graph.VertexID) int64 {
	s.idx.inject()
	return s.Searcher.Distance(a, b)
}

func (s *flakySearcher) DistanceContext(ctx context.Context, a, b graph.VertexID) (int64, error) {
	if err := s.idx.injectFailing(); err != nil {
		return 0, err
	}
	return s.Searcher.DistanceContext(ctx, a, b)
}

func (s *flakySearcher) OpenPath(ctx context.Context, a, b graph.VertexID) (core.PathIterator, int64, error) {
	if err := s.idx.injectFailing(); err != nil {
		return nil, graph.Infinity, err
	}
	return s.Searcher.OpenPath(ctx, a, b)
}
