// Flat v2 container: the zero-copy on-disk format shared by every index
// serializer in this repository.
//
// A flat file is a section table plus a small metadata blob. Every large
// array (CSR adjacency, CH shortcut lists, TNR distance tables, SILC color
// maps) is stored as one section: a 64-byte-aligned, little-endian run of
// fixed-size elements. A loader can therefore mmap the file and cast each
// section in place — startup is O(#sections), resident memory is shared
// page cache, and indexes larger than RAM serve gracefully. Scalars, small
// tables and options travel in the metadata blob, encoded with the scalar
// Writer/Reader of binio.go.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "RNFLAT2\n"
//	8       4     fourcc — the owning index type ("CH  ", "TNR ", ...)
//	12      4     container version (FlatVersion)
//	16      4     section count
//	20      4     flags (FlagChecksums, nothing else)
//	24      8     meta blob offset
//	32      8     meta blob length in bytes
//	40      24×N  section table: {kind u32, crc u32, offset u64, bytes u64}
//	...           meta blob
//	...     4     CRC32C of the header, table and meta blob
//	...           sections, each padded to a 64-byte boundary
//
// Section offsets are relative to the start of the container, so a flat
// file may be nested inside a U8 section of another flat file (TNR embeds
// its contraction hierarchy this way); because sections are 64-byte
// aligned, nesting preserves alignment and the nested file can still be
// cast in place.
//
// The cast fast path requires a little-endian host and aligned data; on
// big-endian hosts or unaligned buffers the section accessors transparently
// fall back to a decoding copy, so the format is portable even where
// zero-copy is not possible. See docs/FORMAT.md for the full specification.
package binio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"
	"time"
	"unsafe"
)

// FlatMagic identifies a flat v2 container.
const FlatMagic = "RNFLAT2\n"

// FlatVersion is the container version this package reads and writes. A
// reader accepts exactly the layout it writes: any other version is
// ErrVersion, and each kind's loader refuses a section count or meta length
// other than its Save's (Reader.Done).
const FlatVersion = 6

// flatAlign is the section alignment; 64 bytes keeps every section start
// on a cache-line (and, via mmap's page alignment, word-aligned for casts).
const flatAlign = 64

// flatHeaderSize is the fixed part of the header before the section table.
const flatHeaderSize = 40

// flatEntrySize is one section-table entry.
const flatEntrySize = 24

// FlagChecksums is the one flags word a container may carry: each
// section-table entry stores its section's payload CRC32C (Castagnoli), and
// a u32 CRC covering the header, the section table and the meta blob follows
// immediately after the blob. A container with any other flags word is
// ErrCorrupt.
const FlagChecksums = 1 << 0

// castagnoli is the CRC32C polynomial table; hash/crc32 uses the hardware
// CRC32 instruction for it where available.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SectionKind tags the element type of a section.
type SectionKind uint32

// The section kinds.
const (
	SectionU8  SectionKind = 1
	SectionI32 SectionKind = 2
	SectionU32 SectionKind = 3
	SectionI64 SectionKind = 4
)

func (k SectionKind) String() string {
	switch k {
	case SectionU8:
		return "u8"
	case SectionI32:
		return "i32"
	case SectionU32:
		return "u32"
	case SectionI64:
		return "i64"
	default:
		return fmt.Sprintf("kind(%d)", uint32(k))
	}
}

func (k SectionKind) elemSize() int64 {
	switch k {
	case SectionU8:
		return 1
	case SectionI32, SectionU32:
		return 4
	case SectionI64:
		return 8
	default:
		return 0
	}
}

// ErrNotFlat reports that a file does not start with the flat
// container magic: it is not an index, graph or R-tree file at all.
var ErrNotFlat = errors.New("binio: not a flat v2 container")

// ErrVersion reports a flat container whose version this reader does not
// support.
var ErrVersion = errors.New("binio: unsupported flat container version")

// hostLittleEndian reports whether in-place casts produce little-endian
// semantics on this machine.
var hostLittleEndian = func() bool {
	var b [2]byte
	binary.NativeEndian.PutUint16(b[:], 1)
	return b[0] == 1
}()

// FlatWriter accumulates sections and a metadata blob and writes them as
// one flat container. Sections are written in the order they are added and
// are addressed by that index on the read side.
type FlatWriter struct {
	fourcc   uint32
	meta     *Writer
	metaBuf  sliceWriter
	sections []flatSection
}

type flatSection struct {
	kind SectionKind
	data []byte // little-endian payload (may alias the caller's slice)
}

// sliceWriter is a minimal in-memory io.Writer (bytes.Buffer without the
// import, so binio keeps its tiny dependency surface).
type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// NewFlatWriter returns a FlatWriter for a container tagged with fourcc.
func NewFlatWriter(fourcc uint32) *FlatWriter {
	fw := &FlatWriter{fourcc: fourcc}
	fw.meta = NewWriter(&fw.metaBuf)
	return fw
}

// Meta returns the writer for the metadata blob: scalars, options and
// small tables that do not warrant a section of their own.
func (fw *FlatWriter) Meta() *Writer { return fw.meta }

// U8Section adds s as a byte section and returns its index.
func (fw *FlatWriter) U8Section(s []uint8) int { return fw.add(SectionU8, s) }

// I32Section adds s as an int32 section and returns its index.
func (fw *FlatWriter) I32Section(s []int32) int {
	return fw.add(SectionI32, i32LEBytes(s))
}

// U32Section adds s as a uint32 section and returns its index.
func (fw *FlatWriter) U32Section(s []uint32) int {
	return fw.add(SectionU32, i32LEBytes(u32AsI32(s)))
}

// I64Section adds s as an int64 section and returns its index.
func (fw *FlatWriter) I64Section(s []int64) int {
	return fw.add(SectionI64, i64LEBytes(s))
}

func (fw *FlatWriter) add(kind SectionKind, data []byte) int {
	fw.sections = append(fw.sections, flatSection{kind: kind, data: data})
	return len(fw.sections) - 1
}

// WriteTo writes the container. The FlatWriter must not be reused after.
// Every section's CRC32C is recorded in its table entry and a trailing CRC
// covering the header, table and meta blob follows the blob, so a loader
// (or spverify) can detect any flipped byte in the file.
func (fw *FlatWriter) WriteTo(w io.Writer) (int64, error) {
	if err := fw.meta.Flush(); err != nil {
		return 0, err
	}
	meta := fw.metaBuf.b

	metaOff := int64(flatHeaderSize + flatEntrySize*len(fw.sections))
	cursor := align64(metaOff + int64(len(meta)) + 4) // + the header/meta CRC32C
	offsets := make([]int64, len(fw.sections))
	for i, s := range fw.sections {
		offsets[i] = cursor
		cursor = align64(cursor + int64(len(s.data)))
	}

	// The header and table are built in memory first: the table carries
	// each section's checksum and the trailing CRC covers the final header
	// bytes, so nothing can stream out before every checksum is known.
	var hbuf sliceWriter
	hw := NewWriter(&hbuf)
	hw.Magic(FlatMagic)
	hw.U32(fw.fourcc)
	hw.U32(FlatVersion)
	hw.U32(uint32(len(fw.sections)))
	hw.U32(FlagChecksums)
	hw.I64(metaOff)
	hw.I64(int64(len(meta)))
	for i, s := range fw.sections {
		hw.U32(uint32(s.kind))
		hw.U32(crc32.Checksum(s.data, castagnoli))
		hw.I64(offsets[i])
		hw.I64(int64(len(s.data)))
	}
	if err := hw.Flush(); err != nil {
		return 0, err
	}

	bw := NewWriter(w)
	bw.write(hbuf.b)
	bw.write(meta)
	var cb [4]byte
	binary.LittleEndian.PutUint32(cb[:], crc32.Update(crc32.Checksum(hbuf.b, castagnoli), castagnoli, meta))
	bw.write(cb[:])
	written := metaOff + int64(len(meta)) + 4
	var pad [flatAlign]byte
	for i, s := range fw.sections {
		bw.write(pad[:offsets[i]-written])
		bw.write(s.data)
		written = offsets[i] + int64(len(s.data))
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return written, nil
}

func align64(off int64) int64 {
	return (off + flatAlign - 1) &^ (flatAlign - 1)
}

// FlatFile is a parsed flat container. On a little-endian host, section
// accessors cast a word-aligned section in place and the returned slices
// alias the buffer: they are valid only until Close and must be treated as
// immutable.
type FlatFile struct {
	data     []byte
	fourcc   uint32
	metaEnd  int64 // one past the meta blob: where the header CRC lives
	meta     []byte
	secs     []parsedSection
	closed   atomic.Bool   // makes Close idempotent, even under races
	verified atomic.Bool   // a full Verify pass has succeeded
	unmap    func() error  // non-nil when Close must release an mmap
	verifyT  time.Duration // time OpenFlat spent verifying (0: skipped)
}

// VerifyTime reports how long OpenFlat spent verifying checksums, for
// startup observability (zero when verification was skipped). Later
// explicit Verify calls are not included — the caller timing an audit pass
// can time it directly.
func (f *FlatFile) VerifyTime() time.Duration { return f.verifyT }

type parsedSection struct {
	kind SectionKind
	crc  uint32 // stored CRC32C of data
	off  int64  // payload offset in the container
	data []byte
}

// parseFlat parses the header and section table without touching (or
// verifying) the section payloads. Section accessors cast in place where
// alignment and host endianness allow and copy otherwise, so the returned
// FlatFile keeps data, which must not be modified afterwards.
func parseFlat(data []byte) (*FlatFile, error) {
	if len(data) < len(FlatMagic) || string(data[:len(FlatMagic)]) != FlatMagic {
		return nil, ErrNotFlat
	}
	if len(data) < flatHeaderSize {
		return nil, fmt.Errorf("%w: flat header truncated at %d bytes", ErrCorrupt, len(data))
	}
	le := binary.LittleEndian
	f := &FlatFile{data: data}
	f.fourcc = le.Uint32(data[8:])
	if v := le.Uint32(data[12:]); v != FlatVersion {
		return nil, fmt.Errorf("%w: file is version %d, this reader supports version %d",
			ErrVersion, v, FlatVersion)
	}
	count := int64(le.Uint32(data[16:]))
	if flags := le.Uint32(data[20:]); flags != FlagChecksums {
		return nil, fmt.Errorf("%w: flags word %#x, want %#x (checksums)", ErrCorrupt, flags, FlagChecksums)
	}
	size := int64(len(data))
	if flatHeaderSize+count*flatEntrySize > size {
		return nil, fmt.Errorf("%w: section table (%d sections) exceeds file size %d",
			ErrCorrupt, count, size)
	}
	metaOff := int64(le.Uint64(data[24:]))
	metaLen := int64(le.Uint64(data[32:]))
	if metaOff < 0 || metaLen < 0 || metaOff > size || metaLen > size-metaOff {
		return nil, fmt.Errorf("%w: meta blob [%d, +%d) exceeds file size %d",
			ErrCorrupt, metaOff, metaLen, size)
	}
	f.meta = data[metaOff : metaOff+metaLen]
	f.metaEnd = metaOff + metaLen
	if f.metaEnd+4 > size {
		return nil, fmt.Errorf("%w: container truncated before its header checksum", ErrCorrupt)
	}
	f.secs = make([]parsedSection, count)
	for i := range f.secs {
		entry := data[flatHeaderSize+int64(i)*flatEntrySize:]
		kind := SectionKind(le.Uint32(entry))
		crc := le.Uint32(entry[4:])
		off := int64(le.Uint64(entry[8:]))
		n := int64(le.Uint64(entry[16:]))
		es := kind.elemSize()
		if es == 0 {
			return nil, fmt.Errorf("%w: section %d has unknown kind %d", ErrCorrupt, i, uint32(kind))
		}
		if off < 0 || n < 0 || off > size || n > size-off {
			return nil, fmt.Errorf("%w: section %d [%d, +%d) exceeds file size %d",
				ErrCorrupt, i, off, n, size)
		}
		if n%es != 0 {
			return nil, fmt.Errorf("%w: section %d length %d is not a multiple of %s elements",
				ErrCorrupt, i, n, kind)
		}
		f.secs[i] = parsedSection{kind: kind, crc: crc, off: off, data: data[off : off+n]}
	}
	return f, nil
}

// OpenOption configures OpenFlat.
type OpenOption func(*openOptions)

type openOptions struct{ skipVerify bool }

// WithoutVerify skips checksum verification at open: the caller trusts the
// file. A mapped open then stays O(#sections) — no data page is touched —
// and corruption is caught only by the O(1) structural checks; a query over
// damaged bytes that pass them may answer wrongly or panic. Audit such
// files first (an explicit Verify, or spverify).
func WithoutVerify() OpenOption { return func(o *openOptions) { o.skipVerify = true } }

// OpenFlat maps (or, where mmap is unavailable, reads) the file at path
// and parses it as a flat container. The caller must Close the returned
// file once every slice obtained from it is unreachable.
//
// Every checksum is verified before OpenFlat returns, for heap reads and
// mappings alike (verifying a mapping faults every page once), unless
// WithoutVerify is passed. Errors name path.
func OpenFlat(path string, preferMmap bool, opts ...OpenOption) (*FlatFile, error) {
	var o openOptions
	for _, opt := range opts {
		opt(&o)
	}
	data, unmap, err := mapFile(path, preferMmap && hostLittleEndian)
	if err != nil {
		return nil, err
	}
	f, err := parseFlat(data)
	if err == nil && !o.skipVerify {
		start := time.Now()
		err = f.Verify()
		f.verifyT = time.Since(start)
	}
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	f.unmap = unmap
	return f, nil
}

// Close releases the underlying mapping, if any. Slices obtained from the
// file must not be used afterwards. Close is idempotent — a second call
// returns nil without touching the released mapping — and when two
// goroutines race it, exactly one performs the release. Closing a nil
// file, the backing of an object built in this process, is a no-op.
func (f *FlatFile) Close() error {
	if f == nil || f.closed.Swap(true) {
		return nil
	}
	unmap := f.unmap
	f.unmap = nil
	f.data, f.meta, f.secs = nil, nil, nil
	if unmap != nil {
		return unmap()
	}
	return nil
}

// Verify checks every checksum in the container: the header/table/meta
// CRC and each section's CRC32C. Nested containers need no separate pass —
// their bytes live inside a parent section, so the parent's checksum
// covers them. Verify is read-only and safe to call concurrently; on a
// mapped file it faults every page once (one sequential sweep).
func (f *FlatFile) Verify() error {
	if err := f.VerifyHeader(); err != nil {
		return err
	}
	for i := range f.secs {
		if err := f.VerifySection(i); err != nil {
			return err
		}
	}
	f.verified.Store(true)
	return nil
}

// Verified reports whether a full Verify pass has succeeded — i.e. the
// bytes are known-good, not merely structurally plausible. It is true for a
// nil file: an object built in this process has no disk bytes to distrust.
func (f *FlatFile) Verified() bool { return f == nil || f.verified.Load() }

// VerifyHeader checks the CRC covering the fixed header, the section
// table and the meta blob.
func (f *FlatFile) VerifyHeader() error {
	stored := binary.LittleEndian.Uint32(f.data[f.metaEnd:])
	if got := crc32.Checksum(f.data[:f.metaEnd], castagnoli); got != stored {
		return fmt.Errorf("%w: header/meta checksum mismatch (stored %08x, computed %08x)",
			ErrCorrupt, stored, got)
	}
	return nil
}

// VerifySection checks section i's payload against its stored CRC32C.
func (f *FlatFile) VerifySection(i int) error {
	if i < 0 || i >= len(f.secs) {
		return fmt.Errorf("%w: section %d out of range (file has %d)", ErrCorrupt, i, len(f.secs))
	}
	s := f.secs[i]
	if got := crc32.Checksum(s.data, castagnoli); got != s.crc {
		return fmt.Errorf("%w: section %d (%s, %d bytes) checksum mismatch (stored %08x, computed %08x)",
			ErrCorrupt, i, s.kind, len(s.data), s.crc, got)
	}
	return nil
}

// Mapped reports whether the file is backed by an mmap (as opposed to a
// heap buffer, or to nothing for a nil file).
func (f *FlatFile) Mapped() bool { return f != nil && f.unmap != nil }

// Mode renders a load path — mapped or not — for logs.
func Mode(mapped bool) string {
	if mapped {
		return "mmap"
	}
	return "heap"
}

// SizeBytes returns the container size.
func (f *FlatFile) SizeBytes() int64 { return int64(len(f.data)) }

// Fourcc returns the container's index-type tag.
func (f *FlatFile) Fourcc() uint32 { return f.fourcc }

// FourccString renders a fourcc tag for messages, e.g. "CH  ".
func FourccString(fourcc uint32) string {
	b := []byte{byte(fourcc), byte(fourcc >> 8), byte(fourcc >> 16), byte(fourcc >> 24)}
	for i, c := range b {
		if c < 0x20 || c > 0x7e {
			b[i] = '?'
		}
	}
	return string(b)
}

// NumSections returns the number of sections.
func (f *FlatFile) NumSections() int { return len(f.secs) }

// SectionInfo reports section i's kind and payload size — the shape audit
// tools (spverify) print next to each section's verification verdict.
func (f *FlatFile) SectionInfo(i int) (kind SectionKind, size int64) {
	s := f.secs[i]
	return s.kind, int64(len(s.data))
}

// SectionRange reports the byte range [off, off+size) section i's payload
// occupies in the container — where fault-injection tooling must aim for a
// flipped byte to land in checksum-covered territory.
func (f *FlatFile) SectionRange(i int) (off, size int64) {
	s := f.secs[i]
	return s.off, int64(len(s.data))
}

// CoveredHeaderLen reports the length of the leading region protected by
// the header/table/meta CRC — the fixed header, the section table, the
// meta blob, and the stored CRC itself (whose corruption is equally
// detectable). Together with the SectionRange spans this enumerates every
// covered byte: only the alignment padding between regions is uncovered
// (and meaningless).
func (f *FlatFile) CoveredHeaderLen() int64 { return f.metaEnd + 4 }

// Decode starts reading the container as the kind tagged fourcc whose meta
// blob opens with magic, failing the returned Reader if it is another
// kind. The Reader reads the blob's scalars in order — bounded by the
// blob's length, so corrupt length prefixes cannot trigger oversized
// allocations — and the sections by index.
func (f *FlatFile) Decode(fourcc uint32, magic string) *Reader {
	r := NewReaderLimit(&sliceReader{b: f.meta}, int64(len(f.meta)))
	r.f = f
	if f.fourcc != fourcc {
		r.err = fmt.Errorf("container holds %q, want %q", FourccString(f.fourcc), FourccString(fourcc))
	}
	r.Magic(magic)
	return r
}

// Done ends a decode begun by Decode. It returns the first error met, or
// ErrCorrupt when the container is not exactly the layout the loader read:
// meta bytes left unread, or a section count other than sections. Every
// loader calls it once, so a file loads only in the layout its Save writes
// and nothing a newer writer adds is silently ignored.
func (r *Reader) Done(sections int) error {
	if r.err == nil && (r.remaining != 0 || len(r.f.secs) != sections) {
		r.err = fmt.Errorf("%w: %d sections and %d unread meta bytes, want %d and 0",
			ErrCorrupt, len(r.f.secs), r.remaining, sections)
	}
	return r.err
}

// sliceReader is a minimal in-memory io.Reader.
type sliceReader struct{ b []byte }

func (s *sliceReader) Read(p []byte) (int, error) {
	if len(s.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.b)
	s.b = s.b[n:]
	return n, nil
}

func (f *FlatFile) section(i int, kind SectionKind) ([]byte, error) {
	if i < 0 || i >= len(f.secs) {
		return nil, fmt.Errorf("%w: section %d out of range (file has %d)", ErrCorrupt, i, len(f.secs))
	}
	if f.secs[i].kind != kind {
		return nil, fmt.Errorf("%w: section %d is %s, want %s", ErrCorrupt, i, f.secs[i].kind, kind)
	}
	return f.secs[i].data, nil
}

// section is the sticky form of FlatFile.section.
func (r *Reader) section(i int, kind SectionKind) []byte {
	if r.err != nil {
		return nil
	}
	var b []byte
	b, r.err = r.f.section(i, kind)
	return b
}

// U8s returns section i as a byte slice (always zero-copy).
func (r *Reader) U8s(i int) []uint8 { return r.section(i, SectionU8) }

// I32s returns section i as an []int32, casting in place when possible.
func (r *Reader) I32s(i int) []int32 { return castI32(r.section(i, SectionI32)) }

// U32s returns section i as a []uint32, casting in place when possible.
func (r *Reader) U32s(i int) []uint32 {
	return i32AsU32(castI32(r.section(i, SectionU32)))
}

// I64s returns section i as an []int64, casting in place when possible.
func (r *Reader) I64s(i int) []int64 { return castI64(r.section(i, SectionI64)) }

// Nested parses U8 section i as an embedded flat container. The nested
// file shares the parent's backing (do not Close the parent first); closing
// the nested file is a no-op. The nested container is not verified here:
// its bytes are the parent section's payload, so the parent's checksum
// already covers them and a second CRC pass would fault the nested pages at
// load time for nothing.
func (r *Reader) Nested(i int) *FlatFile {
	b := r.section(i, SectionU8)
	if r.err != nil {
		return nil
	}
	var f *FlatFile
	f, r.err = parseFlat(b)
	return f
}

// --- raw little-endian views -------------------------------------------

// i32LEBytes returns the little-endian byte image of s without copying on
// little-endian hosts.
func i32LEBytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
	}
	b := make([]byte, 4*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return b
}

func i64LEBytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
	}
	b := make([]byte, 8*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b
}

// u32AsI32 reinterprets a []uint32 as []int32 (same size and layout).
func u32AsI32(s []uint32) []int32 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&s[0])), len(s))
}

// i32AsU32 is the inverse reinterpretation.
func i32AsU32(s []int32) []uint32 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&s[0])), len(s))
}

// castI32 views b as little-endian int32s: in place when aligned and on a
// little-endian host; otherwise via a decoding copy.
func castI32(b []byte) []int32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(int32(0)) == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return s
}

func castI64(b []byte) []int64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(int64(0)) == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
	}
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return s
}

// CastStructs reinterprets a little-endian int32 run as a slice of T,
// where T must be a struct composed solely of int32-compatible fields
// (e.g. geom.Point). It is the bridge that lets index packages map their
// own plain-old-data types over a section without binio knowing the type.
// The data must outlive the result; sizeof(T) must divide 4*len(raw).
func CastStructs[T any](raw []int32) []T {
	if len(raw) == 0 {
		return nil
	}
	var t T
	size := int(unsafe.Sizeof(t))
	if size == 0 || (4*len(raw))%size != 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&raw[0])), 4*len(raw)/size)
}
