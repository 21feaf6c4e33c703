package ch

import (
	"bytes"
	"testing"

	"roadnet/internal/binio"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// TestBuildDeterministic builds one graph twice and requires the same index
// byte for byte, and with it the same search spaces: the arc order of the
// upward CSR once followed Go's map iteration order, which made
// settled-vertex counts differ from build to build.
func TestBuildDeterministic(t *testing.T) {
	g := testutil.SmallRoad(1600, 31)
	a, b := Build(g, Options{}), Build(g, Options{})
	b.buildTime = a.buildTime // the one field that is a clock reading
	var abuf, bbuf bytes.Buffer
	if err := a.Save(&abuf); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&bbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(abuf.Bytes(), bbuf.Bytes()) {
		t.Error("two builds of the same graph serialize differently")
	}
	sa, sb := a.NewSearcher(), b.NewSearcher()
	var settledA, settledB int
	for _, p := range testutil.SamplePairs(g, 400, 9) {
		sa.Distance(p[0], p[1])
		sb.Distance(p[0], p[1])
		settledA += sa.SettledLast()
		settledB += sb.SettledLast()
	}
	if settledA != settledB {
		t.Errorf("two builds settle %d and %d vertices over the same pairs", settledA, settledB)
	}
}

// upArc returns the index of the upward arc from -> to, or -1.
func upArc(h *Hierarchy, from, to graph.VertexID) int32 {
	for a := h.firstUp[from]; a < h.firstUp[from+1]; a++ {
		if h.upHead[a] == to {
			return a
		}
	}
	return -1
}

// TestShortcutHalvesAreUpwardArcs checks what lets upMiddle be the only
// record of a shortcut's middle: every shortcut (u, w) via m has m ranked
// below both ends, its halves (m, u) and (m, w) are arcs of m's row that
// middleOf resolves, and their weights add up to the shortcut's. Rows hold
// one arc per head, heads ascending.
func TestShortcutHalvesAreUpwardArcs(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g := messyGraph(seed)
		h := Build(g, Options{})
		shortcuts := 0
		for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
			for a := h.firstUp[u]; a < h.firstUp[u+1]; a++ {
				w := h.upHead[a]
				if a > h.firstUp[u] && h.upHead[a-1] >= w {
					t.Fatalf("seed %d: row %d heads %d, %d not strictly increasing", seed, u, h.upHead[a-1], w)
				}
				if h.rank[u] >= h.rank[w] {
					t.Fatalf("seed %d: arc %d->%d does not lead upward", seed, u, w)
				}
				m := h.upMiddle[a]
				if got, ok := h.middleOf(w, u); !ok || got != m {
					t.Fatalf("seed %d: middleOf(%d, %d) = %d, %v, want %d", seed, w, u, got, ok, m)
				}
				if m < 0 {
					continue
				}
				shortcuts++
				if h.rank[m] >= h.rank[u] {
					t.Fatalf("seed %d: shortcut %d->%d via %d, which is not ranked below %d", seed, u, w, m, u)
				}
				sum := int64(0)
				for _, end := range []graph.VertexID{u, w} {
					half := upArc(h, m, end)
					if half < 0 {
						t.Fatalf("seed %d: shortcut %d->%d via %d has no arc %d->%d", seed, u, w, m, m, end)
					}
					if got, ok := h.middleOf(m, end); !ok || got != h.upMiddle[half] {
						t.Fatalf("seed %d: middleOf(%d, %d) = %d, %v, want %d", seed, m, end, got, ok, h.upMiddle[half])
					}
					sum += int64(h.upWeight[half])
				}
				if sum != int64(h.upWeight[a]) {
					t.Fatalf("seed %d: shortcut %d->%d weighs %d, its halves via %d weigh %d", seed, u, w, h.upWeight[a], m, sum)
				}
			}
		}
		if shortcuts == 0 && h.numShortcuts > 0 {
			t.Errorf("seed %d: %d shortcuts built, none in the CSR", seed, h.numShortcuts)
		}
	}
}

// TestLoadsFileWithUnpackSections loads a container laid out as Save wrote
// it before the unpack table was dropped — the five sections of today plus
// three trailing i32 ones — and requires the answers of the built index.
func TestLoadsFileWithUnpackSections(t *testing.T) {
	g := testutil.SmallRoad(900, 835)
	h := Build(g, Options{})
	fw := binio.NewFlatWriter(Fourcc)
	mw := fw.Meta()
	mw.Magic(chMagic)
	mw.I64(int64(g.NumVertices()))
	mw.I64(int64(g.NumEdges()))
	mw.I64(int64(h.numShortcuts))
	mw.I64(h.buildTime.Nanoseconds())
	for _, s := range [][]int32{h.rank, h.firstUp, h.upHead, h.upWeight, h.upMiddle} {
		fw.I32Section(s)
	}
	for i := 0; i < 3; i++ {
		fw.I32Section(h.upHead) // as long as the old triples' arrays; contents unused
	}
	var buf bytes.Buffer
	if _, err := fw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	old, err := ReadHierarchy(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if old.SizeBytes() != h.SizeBytes() {
		t.Errorf("loaded hierarchy is %d bytes, built one %d", old.SizeBytes(), h.SizeBytes())
	}
	s := old.NewSearcher()
	testutil.CheckDistancesAgainstDijkstra(t, g, testutil.SamplePairs(g, 200, 137), s.Distance)
	testutil.CheckPathsAgainstDijkstra(t, g, testutil.SamplePairs(g, 60, 139), s.ShortestPath)
}
