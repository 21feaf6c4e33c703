package ch

import (
	"bytes"
	"slices"
	"testing"

	"roadnet/internal/binio"
	"roadnet/internal/gen"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// allPairs returns every vertex of g and the distance matrix between them,
// one plain Dijkstra per row.
func allPairs(g *graph.Graph) ([]graph.VertexID, [][]int64) {
	all := make([]graph.VertexID, g.NumVertices())
	for v := range all {
		all[v] = graph.VertexID(v)
	}
	return all, oracleTable(g, all, all)
}

// ruleFirstHops is the canonical-first-hop rule as the doc in sweep.go
// states it, read off the distance matrix.
func ruleFirstHops(g *graph.Graph, dist [][]int64, s graph.VertexID) []uint8 {
	row := make([]uint8, len(dist))
	lo, hi := g.ArcsOf(s)
	for t := range row {
		row[t] = NoHop
		if graph.VertexID(t) == s || dist[s][t] == graph.Infinity {
			continue
		}
		for k := lo; k < hi; k++ {
			if int64(g.ArcWeight(k))+dist[g.Head(k)][t] == dist[s][t] {
				row[t] = uint8(k - lo)
				break
			}
		}
	}
	return row
}

// checkSweeps holds sw, whatever it ran before, to plain Dijkstra and to the
// stated rule from the given sources, and returns the rows of first hops.
func checkSweeps(t testing.TB, g *graph.Graph, sw *Sweeper, dist [][]int64, sources []graph.VertexID) [][]uint8 {
	t.Helper()
	hops := make([][]uint8, len(sources))
	for i, s := range sources {
		if got := sw.Run(s); !slices.Equal(got, dist[s]) {
			for v := range got {
				if got[v] != dist[s][v] {
					t.Fatalf("sweep from %d: d(%d) = %d, Dijkstra %d", s, v, got[v], dist[s][v])
				}
			}
		}
		hops[i] = make([]uint8, len(dist))
		sw.FirstHops(hops[i])
		if want := ruleFirstHops(g, dist, s); !slices.Equal(hops[i], want) {
			for v := range want {
				if hops[i][v] != want[v] {
					t.Fatalf("first hop %d -> %d is slot %d, the rule says %d", s, v, hops[i][v], want[v])
				}
			}
		}
	}
	return hops
}

// FuzzSweepAgrees builds the hierarchy of a messy graph, with the default
// witness budget or one so tight that many shortcuts are superfluous, and
// requires of the sweeper exact distances and the stated first hops — from
// the chosen source on a fresh sweeper, then from every vertex on the same
// one — and of the hops that following them from any s reaches every
// reachable t in exactly d(s, t).
func FuzzSweepAgrees(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, tightBudget bool, source uint16) {
		g := testutil.MessyGraph(seed)
		opts := Options{}
		if tightBudget {
			opts.WitnessSettleLimit = 4
		}
		sw := testutil.Must(Build(g, opts)).NewSweeper()
		all, dist := allPairs(g)
		checkSweeps(t, g, sw, dist, all[int(source)%len(all):][:1])
		hops := checkSweeps(t, g, sw, dist, all)
		for s := range all {
			for target := range all {
				walked := int64(0)
				for cur := s; cur != target && walked <= dist[s][target]; {
					slot := hops[cur][target]
					if slot == NoHop {
						walked = graph.Infinity
						break
					}
					lo, _ := g.ArcsOf(graph.VertexID(cur))
					walked += int64(g.ArcWeight(lo + int32(slot)))
					cur = int(g.Head(lo + int32(slot)))
				}
				if walked != dist[s][target] {
					t.Fatalf("walking first hops %d -> %d covers %d, want %d", s, target, walked, dist[s][target])
				}
			}
		}
	})
}

// TestSweepLoadedHierarchy sweeps a hierarchy cast over the bytes Save
// wrote, the form a heap-loaded and a mapped index share.
func TestSweepLoadedHierarchy(t *testing.T) {
	g := testutil.MessyGraph(3)
	var buf bytes.Buffer
	if err := testutil.Must(Build(g, Options{})).Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := binio.Load(testutil.TempFile(t, "ch.idx", buf.Bytes()), false, func(f *binio.FlatFile) (*Hierarchy, error) {
		return HierarchyFromFlat(f, g)
	})
	if err != nil {
		t.Fatal(err)
	}
	all, dist := allPairs(g)
	checkSweeps(t, g, loaded.NewSweeper(), dist, all)
}

// TestSweepAllocs pins the steady-state cost of the all-pairs kernel: a
// sweep and its first hops allocate nothing.
func TestSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	g := testutil.SmallRoad(2000, 41)
	sw := testutil.Must(Build(g, Options{})).NewSweeper()
	row := make([]uint8, g.NumVertices())
	s := graph.VertexID(0)
	run := func() {
		sw.Run(s)
		sw.FirstHops(row)
		s = (s + 97) % graph.VertexID(g.NumVertices())
	}
	for i := 0; i < 50; i++ {
		run() // grow the walk's stack to its working size
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("steady-state Run + FirstHops allocates %.0f times, want 0", allocs)
	}
}

// BenchmarkSweep times the kernel per source on the NH preset, the graph
// SILC and PCPD preprocess in the benchmark: the sweep alone, and with the
// first hops derived from it.
func BenchmarkSweep(b *testing.B) {
	g, err := gen.GeneratePreset("NH")
	if err != nil {
		b.Fatal(err)
	}
	sw := testutil.Must(Build(g, Options{})).NewSweeper()
	row := make([]uint8, g.NumVertices())
	for _, hops := range []bool{false, true} {
		name := "run"
		if hops {
			name = "run+hops"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sw.Run(graph.VertexID(i % len(row)))
				if hops {
					sw.FirstHops(row)
				}
			}
		})
	}
}
