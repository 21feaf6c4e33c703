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
// stated rule from the given sources, read both ways: FirstHops from s is
// the rule's row of s, and NextHops toward s its column. It returns the rows
// of first hops.
func checkSweeps(t testing.TB, g *graph.Graph, sw *Sweeper, dist [][]int64, sources []graph.VertexID) [][]uint8 {
	t.Helper()
	rule := make([][]uint8, len(dist))
	for v := range rule {
		rule[v] = ruleFirstHops(g, dist, graph.VertexID(v))
	}
	hops := make([][]uint8, len(sources))
	col := make([]uint8, len(dist))
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
		if !slices.Equal(hops[i], rule[s]) {
			for v := range rule[s] {
				if hops[i][v] != rule[s][v] {
					t.Fatalf("first hop %d -> %d is slot %d, the rule says %d", s, v, hops[i][v], rule[s][v])
				}
			}
		}
		sw.NextHops(col)
		for v := range col {
			if col[v] != rule[v][s] {
				t.Fatalf("next hop %d -> %d is slot %d, the rule says %d", v, s, col[v], rule[v][s])
			}
		}
	}
	return hops
}

// FuzzSweepAgrees builds the hierarchy of a messy graph, with the default
// witness budget or one so tight that many shortcuts are superfluous, and
// requires of the sweeper exact distances and the stated first hops, from
// and toward the swept vertex — the chosen one on a fresh sweeper, then
// every vertex on the same one — and of the hops that following them from
// any s reaches every reachable t in exactly d(s, t).
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
// sweep, its first hops and its next hops allocate nothing.
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
		sw.NextHops(row)
		s = (s + 97) % graph.VertexID(g.NumVertices())
	}
	for i := 0; i < 50; i++ {
		run() // grow the walk's stack to its working size
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("steady-state Run + FirstHops + NextHops allocates %.0f times, want 0", allocs)
	}
}

// BenchmarkSweep times the kernel per swept vertex on the NH preset, the
// graph SILC and PCPD preprocess in the benchmark: the sweep alone, and with
// the first hops from it (SILC) or the next hops toward it (PCPD).
func BenchmarkSweep(b *testing.B) {
	g, err := gen.GeneratePreset("NH")
	if err != nil {
		b.Fatal(err)
	}
	sw := testutil.Must(Build(g, Options{})).NewSweeper()
	row := make([]uint8, g.NumVertices())
	for _, read := range []struct {
		name string
		hops func([]uint8)
	}{{"run", nil}, {"run+hops", sw.FirstHops}, {"run+nexthops", sw.NextHops}} {
		b.Run(read.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sw.Run(graph.VertexID(i % len(row)))
				if read.hops != nil {
					read.hops(row)
				}
			}
		})
	}
}
