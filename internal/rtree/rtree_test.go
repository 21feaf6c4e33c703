package rtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"roadnet/internal/binio"
	"roadnet/internal/geom"
	"roadnet/internal/testutil"
)

// deepN entries make a tree of height 4 or more: more than M³.
const deepN = 5000

// randomEntries generates n entries with duplicate coordinates likely, so
// tie-breaking is exercised.
func randomEntries(n int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	span := int32(n/2 + 4) // small span forces coordinate collisions
	ents := make([]Entry, n)
	for i := range ents {
		ents[i] = Entry{
			P:  geom.Point{X: rng.Int31n(span) - span/2, Y: rng.Int31n(span) - span/2},
			ID: int32(i),
		}
	}
	return ents
}

// oracleNearest is the linear-scan ground truth of Nearest: the entry of
// least (squared distance, ID).
func oracleNearest(ents []Entry, p geom.Point) Entry {
	best := ents[0]
	for _, e := range ents[1:] {
		if d, bd := DistSq(p, e.P), DistSq(p, best.P); d < bd || d == bd && e.ID < best.ID {
			best = e
		}
	}
	return best
}

func sortByID(s []Entry) {
	sort.Slice(s, func(i, j int) bool { return s[i].ID < s[j].ID })
}

func checkTreeInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	if tr.size == 0 {
		return
	}
	var walk func(ni int32, depth int)
	var leafDepth = -1
	total := 0
	walk = func(ni int32, depth int) {
		n := &tr.nodes[ni]
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				t.Fatalf("leaves at depths %d and %d: tree not balanced", leafDepth, depth)
			}
			total += len(n.ents)
			for _, e := range n.ents {
				if !n.rect.Contains(e.P) {
					t.Fatalf("leaf %d rect %+v does not contain entry %+v", ni, n.rect, e)
				}
			}
			if len(n.ents) > maxEntries {
				t.Fatalf("leaf %d holds %d entries, cap %d", ni, len(n.ents), maxEntries)
			}
			return
		}
		if len(n.kids) > maxEntries {
			t.Fatalf("node %d holds %d children, cap %d", ni, len(n.kids), maxEntries)
		}
		if len(n.kids) == 0 {
			t.Fatalf("internal node %d has no children", ni)
		}
		for _, k := range n.kids {
			kr := tr.nodes[k].rect
			if n.rect.Union(kr) != n.rect {
				t.Fatalf("node %d rect %+v does not cover child %d rect %+v", ni, n.rect, k, kr)
			}
			walk(k, depth+1)
		}
	}
	walk(tr.root, 1)
	if leafDepth != tr.height {
		t.Fatalf("leaf depth %d != recorded height %d", leafDepth, tr.height)
	}
	if total != tr.size {
		t.Fatalf("tree claims %d entries, leaves hold %d", tr.size, total)
	}
}

// TestOracleQueries cross-checks every query kind against a linear scan,
// on trees from a lone leaf up to height 4.
func TestOracleQueries(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 17, 64, 500, deepN} {
		ents := randomEntries(n, int64(1000*n+16))
		tr := BulkLoad(ents)
		rng := rand.New(rand.NewSource(int64(n + 16)))
		checkTreeInvariants(t, tr)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		if n >= deepN && tr.Height() < 4 {
			t.Fatalf("n=%d: Height=%d, want at least 4", n, tr.Height())
		}
		if tr.Bounds() != geom.BoundingRect(entryPoints(ents)) {
			t.Fatalf("n=%d: Bounds=%+v", n, tr.Bounds())
		}
		for trial := 0; trial < 20; trial++ {
			p := geom.Point{X: rng.Int31n(int32(n+8)) - int32(n/2), Y: rng.Int31n(int32(n+8)) - int32(n/2)}

			// Rectangle search vs scan.
			r := geom.NewRect(p, geom.Point{X: p.X + rng.Int31n(10), Y: p.Y - rng.Int31n(10)})
			var got []Entry
			tr.Search(r, func(e Entry) bool { got = append(got, e); return true })
			var want []Entry
			for _, e := range ents {
				if r.Contains(e.P) {
					want = append(want, e)
				}
			}
			sortByID(got)
			sortByID(want)
			if !equalEntries(got, want) {
				t.Fatalf("n=%d rect %+v: got %v want %v", n, r, got, want)
			}

			// Radius search vs scan.
			rad := int64(rng.Intn(n + 2))
			got = got[:0]
			tr.SearchRadius(p, rad, func(e Entry, d int64) bool {
				if d != DistSq(p, e.P) {
					t.Fatalf("radius reported distSq %d for %+v, want %d", d, e, DistSq(p, e.P))
				}
				got = append(got, e)
				return true
			})
			want = want[:0]
			for _, e := range ents {
				if DistSq(p, e.P) <= rad*rad {
					want = append(want, e)
				}
			}
			sortByID(got)
			sortByID(want)
			if !equalEntries(got, want) {
				t.Fatalf("n=%d radius %d at %+v: got %v want %v", n, rad, p, got, want)
			}
		}

		// Nearest vs scan at every point of the entries' span and a margin
		// around it — every step-th point on the deep tree, whose span the
		// scan would take minutes over: ties between subtrees at equal
		// MINDIST are common there, and the smaller ID must win them.
		half, step := int32(n/2+4)/2+2, int32(1)
		if n >= deepN {
			step = half / 64
		}
		for x := -half; x <= half && n > 0; x += step {
			for y := -half; y <= half; y += step {
				p := geom.Point{X: x, Y: y}
				e, d, ok := tr.Nearest(p)
				if want := oracleNearest(ents, p); !ok || e != want || d != DistSq(p, e.P) {
					t.Fatalf("n=%d Nearest(%+v) = %v, %d, %v; want %v", n, p, e, d, ok, want)
				}
			}
		}
	}
}

func entryPoints(ents []Entry) []geom.Point {
	pts := make([]geom.Point, len(ents))
	for i, e := range ents {
		pts[i] = e.P
	}
	return pts
}

func equalEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmptyTree(t *testing.T) {
	tr := BulkLoad(nil)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree: Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if _, _, ok := tr.Nearest(geom.Point{}); ok {
		t.Fatal("Nearest on empty tree returned ok")
	}
	tr.Search(geom.Rect{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10}, func(Entry) bool {
		t.Fatal("Search on empty tree called fn")
		return false
	})
}

// TestNearestAllocs pins Nearest, the snap behind every coordinate
// request, at zero allocations.
func TestNearestAllocs(t *testing.T) {
	ents := randomEntries(5000, 11)
	tr := BulkLoad(ents)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		tr.Nearest(ents[i%len(ents)].P)
		i++
	})
	if allocs != 0 {
		t.Errorf("Nearest: %.0f allocations per query, want 0", allocs)
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := BulkLoad(randomEntries(deepN, 7))
	calls := 0
	complete := tr.Search(tr.Bounds(), func(Entry) bool { calls++; return calls < 300 })
	if complete || calls != 300 {
		t.Fatalf("early stop: complete=%v calls=%d", complete, calls)
	}
}

// TestSerializeRoundTrip checks that a saved tree loads back (heap and
// mmap) answering every query identically.
func TestSerializeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 33, 400, deepN} {
		ents := randomEntries(n, int64(n))
		orig := BulkLoad(ents)
		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			t.Fatalf("n=%d: Save: %v", n, err)
		}

		path := testutil.TempFile(t, "tree.rt", buf.Bytes())
		heap, err := LoadFile(path, false)
		if err != nil {
			t.Fatalf("n=%d: LoadFile: %v", n, err)
		}
		mapped, err := LoadFile(path, true)
		if err != nil {
			t.Fatalf("n=%d: LoadFile: %v", n, err)
		}

		for _, tr := range []*Tree{heap, mapped} {
			if tr.Len() != n || tr.Height() != orig.Height() {
				t.Fatalf("n=%d: loaded Len=%d Height=%d", n, tr.Len(), tr.Height())
			}
			checkTreeInvariants(t, tr)
			for _, p := range []geom.Point{{X: 3, Y: -1}, {X: -40, Y: 7}, {}} {
				e, d, ok := tr.Nearest(p)
				if we, wd, wok := orig.Nearest(p); e != we || d != wd || ok != wok {
					t.Fatalf("n=%d: loaded Nearest(%+v) = %v, %d, %v; built %v, %d, %v", n, p, e, d, ok, we, wd, wok)
				}
			}
			var a, b []Entry
			r := geom.Rect{MinX: -5, MinY: -5, MaxX: 5, MaxY: 5}
			tr.Search(r, func(e Entry) bool { a = append(a, e); return true })
			orig.Search(r, func(e Entry) bool { b = append(b, e); return true })
			sortByID(a)
			sortByID(b)
			if !equalEntries(a, b) {
				t.Fatalf("n=%d: loaded Search differs", n)
			}
		}
		if err := mapped.Close(); err != nil {
			t.Fatalf("n=%d: Close: %v", n, err)
		}
	}
}

// load opens data as a tree file read onto the heap.
func load(t *testing.T, data []byte) (*Tree, error) {
	t.Helper()
	return LoadFile(testutil.TempFile(t, "tree.rt", data), false)
}

func TestLoadRejectsCorrupt(t *testing.T) {
	orig := BulkLoad(randomEntries(50, 1))
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Wrong fourcc.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[8] = 'X'
	if _, err := load(t, bad); err == nil {
		t.Fatal("wrong fourcc accepted")
	}
	// Truncated container.
	if _, err := load(t, buf.Bytes()[:40]); err == nil {
		t.Fatal("truncated container accepted")
	}
	// A flipped byte in the node rectangles, which no structural check
	// reads: only their checksum can tell.
	bad = append([]byte(nil), buf.Bytes()...)
	bad[binary.LittleEndian.Uint64(bad[40+8:])] ^= 1 // section 0's offset, from the section table
	if _, err := load(t, bad); !errors.Is(err, binio.ErrCorrupt) {
		t.Errorf("flipped section byte: err = %v, want binio.ErrCorrupt", err)
	}
}

// TestLoadRejectsWideNode: a file whose leaf holds more than M entries, or
// whose internal node holds more than M children, is corrupt — no BulkLoad
// writes one, and Nearest orders a node's children in an array of M.
func TestLoadRejectsWideNode(t *testing.T) {
	ents := randomEntries(maxEntries+1, 3)
	wideLeaf := &Tree{nodes: []node{{leaf: true, ents: ents}}, size: len(ents), height: 1}
	wideRoot := &Tree{size: len(ents), height: 2}
	root := node{}
	for i, e := range ents {
		wideRoot.nodes = append(wideRoot.nodes, node{leaf: true, ents: []Entry{e}, rect: pointRect(e.P)})
		root.kids = append(root.kids, int32(i))
	}
	wideRoot.nodes = append(wideRoot.nodes, root)
	wideRoot.root = int32(len(ents))
	for name, tr := range map[string]*Tree{"leaf": wideLeaf, "internal": wideRoot} {
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := load(t, buf.Bytes()); !errors.Is(err, binio.ErrCorrupt) {
			t.Errorf("%s node of %d: err = %v, want binio.ErrCorrupt", name, len(ents), err)
		}
	}
}
