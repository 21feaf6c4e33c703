// Package binio is the binary persistence layer under every saved
// artifact in this repository — graphs, CH/TNR/SILC/PCPD indexes and R-trees.
// Preprocessing the larger datasets takes minutes to hours (Figure 6(b));
// persisting the result is what a production deployment would do, so the
// library supports it for every structure whose construction is expensive.
//
// There is one format, the flat container (flat.go): an aligned,
// sectioned, checksummed layout designed so a file can be mmap'd and its
// sections handed to the index as zero-copy typed slices
// (CastSlice/CastStructs) — load time is O(#sections) regardless of index
// size, and resident memory is page cache shared across processes. OpenFlat
// verifies every section checksum by default; WithoutVerify defers the
// sweep (audit later with the spverify tool). binio.go holds the scalar
// Writer/Reader the container's header and metadata blob are encoded with;
// file.go the one way on and off disk — Load, which every loader in the
// repository is a composition of, and the all-or-nothing WriteFile every
// cache is written through.
//
// Decoding failures caused by the bytes themselves — hostile section
// tables, truncated sections, checksum mismatches — wrap ErrCorrupt, so callers
// can distinguish corruption (rebuild, fall back, degrade) from
// environmental failures (missing file, permissions). docs/FORMAT.md
// documents the on-disk layout and its evolution rules.
package binio
