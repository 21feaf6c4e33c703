package core

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"sync"
	"testing"

	"roadnet/internal/ch"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/workload"
)

// pathFixture is the fixture of the path gates: the seven techniques built
// on NH with default options over one shared hierarchy, and the Q1..Q10
// sets of 50 pairs of workload seed 1.
type pathFixture struct {
	idx  map[Method]Index
	sets []workload.QuerySet
	err  error
}

// nhPaths returns the fixture, built once per test binary; NH is not
// built with -short.
func nhPaths(t *testing.T) pathFixture {
	if testing.Short() {
		t.Skip("builds all seven techniques on NH")
	}
	fx := buildNHPaths()
	if fx.err != nil {
		t.Fatal(fx.err)
	}
	return fx
}

var buildNHPaths = sync.OnceValue(func() (fx pathFixture) {
	g, err := gen.GeneratePreset("NH")
	if err != nil {
		fx.err = err
		return fx
	}
	h, err := ch.Build(g, ch.Options{})
	if err != nil {
		fx.err = err
		return fx
	}
	fx.idx = map[Method]Index{}
	for _, m := range concurrencyMethods {
		if fx.idx[m], fx.err = BuildIndex(m, g, Config{Hierarchy: h}); fx.err != nil {
			return fx
		}
	}
	fx.sets, fx.err = workload.LInfSets(g, workload.Config{PairsPerSet: 50, Seed: 1})
	return fx
})

// TestPathDigests pins every path the seven techniques answer on the NH
// fixture: FNV-1a over each Index.ShortestPath answer (length, vertex count,
// vertices) of all Q1..Q10 pairs. A change in how any technique produces or
// collects a path shows here; the table changes only in a commit that argues
// why the paths should.
func TestPathDigests(t *testing.T) {
	fx := nhPaths(t)
	want := map[Method]uint64{
		MethodDijkstra: 0xf0a1cf890152ecea,
		MethodCH:       0x7a8ebb061f63172b,
		MethodTNR:      0x7a8ebb061f63172b,
		MethodSILC:     0x1a5aceafcd109992,
		MethodPCPD:     0x1a5aceafcd109992,
		MethodALT:      0x6c53581c07539751,
		MethodArcFlags: 0x9427c0ae752d95da,
	}
	for _, m := range concurrencyMethods {
		h := fnv.New64a()
		var buf []byte
		for _, qs := range fx.sets {
			for _, p := range qs.Pairs {
				path, d := fx.idx[m].ShortestPath(p.S, p.T)
				buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(d))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(path)))
				for _, v := range path {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
				}
				h.Write(buf)
			}
		}
		if got := h.Sum64(); got != want[m] {
			t.Errorf("%s: path digest %#016x, table says %#016x", m, got, want[m])
		}
	}
}

// TestPathAllocs pins what a path costs on every technique, over the Q10
// pairs of the NH fixture: draining OpenPath on a warm searcher allocates
// nothing, and Index.ShortestPath allocates once per reachable query — the
// caller's slice, made in the one place a path becomes a slice.
func TestPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	fx := nhPaths(t)
	q10 := fx.sets[len(fx.sets)-1].Pairs
	ctx := context.Background()
	for _, m := range concurrencyMethods {
		t.Run(string(m), func(t *testing.T) {
			ix := fx.idx[m]
			sr := ix.NewSearcher()
			reachable := 0
			for _, p := range q10 {
				if sr.Distance(p.S, p.T) < graph.Infinity {
					reachable++
				}
			}
			drained := testing.AllocsPerRun(5, func() {
				for _, p := range q10 {
					if it, _, _ := sr.OpenPath(ctx, p.S, p.T); it != nil {
						for _, ok := it.Next(); ok; _, ok = it.Next() {
						}
					}
				}
			})
			if drained != 0 {
				t.Errorf("draining OpenPath: %.2f allocations per query, want 0", drained/float64(len(q10)))
			}
			collected := testing.AllocsPerRun(5, func() {
				for _, p := range q10 {
					ix.ShortestPath(p.S, p.T)
				}
			})
			if collected != float64(reachable) {
				t.Errorf("Index.ShortestPath: %.2f allocations per query over %d reachable of %d, want 1 per reachable query",
					collected/float64(len(q10)), reachable, len(q10))
			}
		})
	}
}

// TestDistanceAllocs pins a warm searcher's distance query at zero
// allocations on every technique, over the Q10 pairs of the NH fixture;
// TestPoolDistanceAllocs pins the same through the pool for CH alone.
func TestDistanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	fx := nhPaths(t)
	q10 := fx.sets[len(fx.sets)-1].Pairs
	ctx := context.Background()
	for _, m := range concurrencyMethods {
		t.Run(string(m), func(t *testing.T) {
			sr := fx.idx[m].NewSearcher()
			allocs := testing.AllocsPerRun(5, func() {
				for _, p := range q10 {
					sr.Distance(p.S, p.T)
					if _, err := sr.DistanceContext(ctx, p.S, p.T); err != nil {
						t.Fatal(err)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("warm Distance: %.2f allocations per query, want 0", allocs/float64(2*len(q10)))
			}
		})
	}
}
