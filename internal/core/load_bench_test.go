package core_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"roadnet/internal/binio"
	"roadnet/internal/ch"
	"roadnet/internal/core"
	"roadnet/internal/graph"
	"roadnet/internal/testutil"
)

// loadFixture builds one CH index over a mid-sized network and saves it to
// a temp file exactly once per test binary, so -count N repeats of the load
// benchmarks and the allocation gate do not pay the build again.
var loadFixture struct {
	once sync.Once
	g    *graph.Graph
	path string
	err  error
}

func loadFixturePath(b testing.TB) (*graph.Graph, string) {
	b.Helper()
	loadFixture.once.Do(func() {
		loadFixture.g = testutil.SmallRoad(20000, 921)
		h := testutil.Must(ch.Build(loadFixture.g, ch.Options{}))
		dir, err := os.MkdirTemp("", "roadnet-loadbench")
		if err != nil {
			loadFixture.err = err
			return
		}
		loadFixture.path = filepath.Join(dir, "ch.idx")
		f, err := os.Create(loadFixture.path)
		if err != nil {
			loadFixture.err = err
			return
		}
		defer f.Close()
		loadFixture.err = h.Save(f)
	})
	if loadFixture.err != nil {
		b.Fatal(loadFixture.err)
	}
	return loadFixture.g, loadFixture.path
}

// indexLoad returns one full LoadIndexFile+CloseIndex cycle. Verification
// is skipped — the benchmarks and the gate measure the zero-copy parse, and
// the default checksum sweep would touch every page and turn the heap/mmap
// comparison into a CRC benchmark.
func indexLoad(tb testing.TB, preferMmap bool) func() {
	g, path := loadFixturePath(tb)
	return func() {
		ix, _, err := core.LoadIndexFile(core.MethodCH, path, g, preferMmap, binio.WithoutVerify())
		if err != nil {
			tb.Fatal(err)
		}
		if err := core.CloseIndex(ix); err != nil {
			tb.Fatal(err)
		}
	}
}

func benchmarkIndexLoad(b *testing.B, preferMmap bool) {
	load := indexLoad(b, preferMmap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load()
	}
}

// TestMmapLoadAllocs is the zero-copy gate of the mapped load path: a mapped
// load touches only the header and the section table, so it must allocate a
// bounded number of times (17, measured, whatever the index size) and at
// least ten times fewer bytes than reading the file onto the heap (about 80
// times fewer on this 20 000-vertex hierarchy), or it has regressed into
// copying.
func TestMmapLoadAllocs(t *testing.T) {
	if !binio.MmapSupported {
		t.Skip("no mmap on this platform")
	}
	mapped, heap := indexLoad(t, true), indexLoad(t, false)
	if allocs := testing.AllocsPerRun(5, mapped); allocs > 32 {
		t.Errorf("a mapped load allocates %.0f times, want at most 32", allocs)
	}
	mappedBytes, heapBytes := testutil.AllocBytesPerRun(5, mapped), testutil.AllocBytesPerRun(5, heap)
	t.Logf("mapped load %.0f B, heap load %.0f B", mappedBytes, heapBytes)
	if heapBytes < 10*mappedBytes {
		t.Errorf("a mapped load allocates %.0f bytes, a heap load %.0f: less than 10 times more", mappedBytes, heapBytes)
	}
}

func BenchmarkIndexLoadHeap(b *testing.B) { benchmarkIndexLoad(b, false) }

func BenchmarkIndexLoadMmap(b *testing.B) { benchmarkIndexLoad(b, true) }
