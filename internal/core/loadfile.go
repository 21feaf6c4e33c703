package core

import (
	"time"

	"roadnet/internal/binio"
	"roadnet/internal/graph"
)

// LoadInfo describes how an index came off disk, for startup observability
// (spserve logs one line per index from it).
type LoadInfo struct {
	// Path is the file the index was loaded from.
	Path string
	// Mapped reports the zero-copy path: the file is mmap'd and the index
	// arrays alias the mapping. False means a heap load (the file read into
	// memory and cast there).
	Mapped bool
	// SizeBytes is the on-disk size of the index file.
	SizeBytes int64
	// LoadTime is the wall-clock time from open to a queryable index.
	LoadTime time.Duration
	// Verified reports that every checksum in the file was verified during
	// the load — the index bytes are known-good. False for loads that
	// passed binio.WithoutVerify.
	Verified bool
	// VerifyTime is how much of LoadTime the checksum sweep took (zero
	// when verification was skipped). Operators watching startup latency
	// want this split out: the sweep is the part WithoutVerify removes.
	VerifyTime time.Duration
}

// LoadIndexFile loads an index of the given method from path, re-attaching
// it to g. The file is opened through binio.OpenFlat: with preferMmap (and
// platform support) it is mapped and the index aliases the mapping —
// O(#sections) startup, near-zero allocations, resident memory shared with
// the page cache; otherwise the container is read onto the heap and still
// parsed without per-element decoding. A file that is not a flat container
// fails with binio.ErrNotFlat.
//
// Indexes whose LoadInfo.Mapped is true hold the mapping open; release it
// with CloseIndex when the index is retired.
//
// Every checksum in the file is verified before the index serves a query,
// mapped or not: a flipped byte fails the load with binio.ErrCorrupt
// instead of producing silently wrong shortest paths (the caller may then
// fall back to a plain Dijkstra pool — see spserve's degraded mode). Pass
// binio.WithoutVerify to skip the sweep and keep mapped loads
// O(#sections); LoadInfo.Verified records which happened.
func LoadIndexFile(method Method, path string, g *graph.Graph, preferMmap bool, opts ...binio.OpenOption) (Index, LoadInfo, error) {
	start := time.Now()
	var file *binio.FlatFile
	ix, err := binio.Load(path, preferMmap, func(f *binio.FlatFile) (Index, error) {
		file = f
		return fromFlat(method, f, g)
	}, opts...)
	if err != nil {
		return nil, LoadInfo{Path: path}, err
	}
	return ix, LoadInfo{
		Path:       path,
		Mapped:     file.Mapped(),
		SizeBytes:  file.SizeBytes(),
		LoadTime:   time.Since(start),
		Verified:   file.Verified(),
		VerifyTime: file.VerifyTime(),
	}, nil
}

// CloseIndex releases any file mapping a LoadIndexFile-loaded index holds.
// The index (and every searcher over it) must not be used afterwards. It
// releases nothing for built and heap-loaded indexes, so callers may defer
// it unconditionally.
func CloseIndex(ix Index) error {
	if in, ok := ix.(*index); ok && in.backing != nil {
		return in.backing.Close()
	}
	return nil
}
