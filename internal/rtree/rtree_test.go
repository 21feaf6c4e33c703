package rtree

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"roadnet/internal/geom"
)

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

// oracleNearestK is the linear-scan ground truth: all entries sorted by
// (squared distance, ID).
func oracleNearestK(ents []Entry, p geom.Point, k int) []Entry {
	s := append([]Entry(nil), ents...)
	sort.Slice(s, func(i, j int) bool {
		di, dj := DistSq(p, s[i].P), DistSq(p, s[j].P)
		if di != dj {
			return di < dj
		}
		return s[i].ID < s[j].ID
	})
	if len(s) > k {
		s = s[:k]
	}
	return s
}

// browseK drains the first k entries of a Browser at p.
func browseK(tr *Tree, p geom.Point, k int) []Entry {
	b := tr.NewBrowser(p)
	var out []Entry
	for len(out) < k {
		e, _, ok := b.Next()
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out
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
			if len(n.ents) > tr.max {
				t.Fatalf("leaf %d holds %d entries, cap %d", ni, len(n.ents), tr.max)
			}
			return
		}
		if len(n.kids) > tr.max {
			t.Fatalf("node %d holds %d children, cap %d", ni, len(n.kids), tr.max)
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
// for several node capacities.
func TestOracleQueries(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 17, 64, 500} {
		for _, cap := range []int{4, 5, 16} {
			ents := randomEntries(n, int64(1000*n+cap))
			builds := map[string]*Tree{"bulk": BulkLoad(ents, Options{MaxEntries: cap})}
			rng := rand.New(rand.NewSource(int64(n + cap)))
			for name, tr := range builds {
				checkTreeInvariants(t, tr)
				if tr.Len() != n {
					t.Fatalf("%s n=%d cap=%d: Len=%d", name, n, cap, tr.Len())
				}
				if tr.Bounds() != geom.BoundingRect(entryPoints(ents)) {
					t.Fatalf("%s n=%d cap=%d: Bounds=%+v", name, n, cap, tr.Bounds())
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
						t.Fatalf("%s n=%d cap=%d rect %+v: got %v want %v", name, n, cap, r, got, want)
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
						t.Fatalf("%s n=%d cap=%d radius %d at %+v: got %v want %v", name, n, cap, rad, p, got, want)
					}

					// k-NN vs scan, exact order.
					k := rng.Intn(n+3) + 1
					knn := browseK(tr, p, k)
					oracle := oracleNearestK(ents, p, k)
					if !equalEntries(knn, oracle) {
						t.Fatalf("%s n=%d cap=%d browseK(%+v,%d):\n got %v\nwant %v", name, n, cap, p, k, knn, oracle)
					}
				}

				// Browser enumerates everything in strict (distSq, ID) order.
				p := geom.Point{X: 1, Y: -2}
				b := tr.NewBrowser(p)
				all := make([]Entry, 0, n)
				lastD, lastID := int64(-1), int32(-1)
				for {
					e, d, ok := b.Next()
					if !ok {
						break
					}
					if d != DistSq(p, e.P) {
						t.Fatalf("browser distSq %d for %+v, want %d", d, e, DistSq(p, e.P))
					}
					if d < lastD || (d == lastD && e.ID <= lastID) {
						t.Fatalf("browser order violated at (%d,%d) after (%d,%d)", d, e.ID, lastD, lastID)
					}
					lastD, lastID = d, e.ID
					all = append(all, e)
				}
				if len(all) != n {
					t.Fatalf("%s n=%d cap=%d: browser yielded %d entries", name, n, cap, len(all))
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
	tr := BulkLoad(nil, Options{})
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree: Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if _, _, ok := tr.Nearest(geom.Point{}); ok {
		t.Fatal("Nearest on empty tree returned ok")
	}
	if got := browseK(tr, geom.Point{}, 3); len(got) != 0 {
		t.Fatalf("Browser on empty tree returned %v", got)
	}
	tr.Search(geom.Rect{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10}, func(Entry) bool {
		t.Fatal("Search on empty tree called fn")
		return false
	})
}

func TestSearchEarlyStop(t *testing.T) {
	tr := BulkLoad(randomEntries(100, 7), Options{MaxEntries: 4})
	calls := 0
	complete := tr.Search(tr.Bounds(), func(Entry) bool { calls++; return calls < 5 })
	if complete || calls != 5 {
		t.Fatalf("early stop: complete=%v calls=%d", complete, calls)
	}
}

// TestSerializeRoundTrip checks that a saved tree loads back (stream and
// mmap paths) answering every query identically.
func TestSerializeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 33, 400} {
		ents := randomEntries(n, int64(n))
		orig := BulkLoad(ents, Options{MaxEntries: 8})
		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			t.Fatalf("n=%d: Save: %v", n, err)
		}

		stream, err := ReadTree(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: ReadTree: %v", n, err)
		}

		path := filepath.Join(t.TempDir(), "tree.rt")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, err := LoadFile(path, true)
		if err != nil {
			t.Fatalf("n=%d: LoadFile: %v", n, err)
		}

		for _, tr := range []*Tree{stream, mapped} {
			if tr.Len() != n || tr.Height() != orig.Height() || tr.MaxEntries() != orig.MaxEntries() {
				t.Fatalf("n=%d: loaded Len=%d Height=%d Max=%d", n, tr.Len(), tr.Height(), tr.MaxEntries())
			}
			checkTreeInvariants(t, tr)
			p := geom.Point{X: 3, Y: -1}
			if !equalEntries(browseK(tr, p, 10), browseK(orig, p, 10)) {
				t.Fatalf("n=%d: loaded Browser order differs", n)
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

func TestLoadRejectsCorrupt(t *testing.T) {
	orig := BulkLoad(randomEntries(50, 1), Options{})
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Wrong fourcc.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[8] = 'X'
	if _, err := ReadTree(bytes.NewReader(bad)); err == nil {
		t.Fatal("wrong fourcc accepted")
	}
	// Truncated container.
	if _, err := ReadTree(bytes.NewReader(buf.Bytes()[:40])); err == nil {
		t.Fatal("truncated container accepted")
	}
}
