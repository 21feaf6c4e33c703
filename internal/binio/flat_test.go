package binio

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

const testFourcc = 0x54534554 // "TEST"

// buildTestFlat writes a container exercising every section kind plus a
// metadata blob, returning its bytes.
func buildTestFlat(t *testing.T) []byte {
	t.Helper()
	fw := NewFlatWriter(testFourcc)
	mw := fw.Meta()
	mw.Magic("META")
	mw.I64(12345)
	mw.I32(-8)
	if i := fw.I32Section([]int32{1, -2, 3}); i != 0 {
		t.Fatalf("first section index = %d", i)
	}
	fw.U32Section([]uint32{10, 20, 30, 40})
	fw.U8Section([]byte("payload"))
	fw.I64Section([]int64{1 << 40, -5})
	fw.I32Section(nil) // empty sections are legal
	var buf bytes.Buffer
	if _, err := fw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkTestFlat(t *testing.T, f *FlatFile) {
	t.Helper()
	if f.Fourcc() != testFourcc {
		t.Errorf("fourcc = %#x", f.Fourcc())
	}
	if f.NumSections() != 5 {
		t.Fatalf("NumSections = %d", f.NumSections())
	}
	d := f.Decode(testFourcc, "META")
	if v := d.I64(); v != 12345 {
		t.Errorf("meta I64 = %d", v)
	}
	if v := d.I32(); v != -8 {
		t.Errorf("meta I32 = %d", v)
	}
	if s32 := d.I32s(0); len(s32) != 3 || s32[1] != -2 {
		t.Errorf("I32s(0) = %v", s32)
	}
	if u32 := d.U32s(1); len(u32) != 4 || u32[3] != 40 {
		t.Errorf("U32s(1) = %v", u32)
	}
	if u8 := d.U8s(2); string(u8) != "payload" {
		t.Errorf("U8s(2) = %q", u8)
	}
	if s64 := d.I64s(3); len(s64) != 2 || s64[0] != 1<<40 {
		t.Errorf("I64s(3) = %v", s64)
	}
	if empty := d.I32s(4); len(empty) != 0 {
		t.Errorf("I32s(4) = %v", empty)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

// unaligned returns a copy of data that starts one byte past an aligned
// address, so no section is word-aligned and every accessor decodes a copy.
func unaligned(data []byte) []byte {
	buf := make([]byte, len(data)+1)
	copy(buf[1:], data)
	return buf[1:]
}

func TestFlatRoundtrip(t *testing.T) {
	data := buildTestFlat(t)
	for name, buf := range map[string][]byte{"aligned": data, "unaligned": unaligned(data)} {
		f, err := parseFlat(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkTestFlat(t, f)
	}
}

func TestFlatAlignment(t *testing.T) {
	data := buildTestFlat(t)
	f, err := parseFlat(data)
	if err != nil {
		t.Fatal(err)
	}
	// Every section's start offset must be 64-byte aligned.
	for i := 0; i < f.NumSections(); i++ {
		entry := data[flatHeaderSize+i*flatEntrySize:]
		off := int64(uint64(entry[8]) | uint64(entry[9])<<8 | uint64(entry[10])<<16 | uint64(entry[11])<<24 |
			uint64(entry[12])<<32 | uint64(entry[13])<<40 | uint64(entry[14])<<48 | uint64(entry[15])<<56)
		if off%flatAlign != 0 {
			t.Errorf("section %d offset %d is not %d-byte aligned", i, off, flatAlign)
		}
	}
}

func TestFlatZeroCopyAliases(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("zero-copy casts require a little-endian host")
	}
	data := buildTestFlat(t)
	f, err := parseFlat(data)
	if err != nil {
		t.Fatal(err)
	}
	d := f.Decode(testFourcc, "META")
	s32 := d.I32s(0)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	raw, err := f.section(0, SectionI32)
	if err != nil {
		t.Fatal(err)
	}
	// When the section start is word-aligned the accessor must cast in
	// place, so the int32 view aliases the raw bytes.
	if uintptr(unsafePointerOf(raw))%4 == 0 && unsafePointerOf(s32byte(s32)) != unsafePointerOf(raw) {
		t.Error("aligned zero-copy access returned a copy")
	}
	// An unaligned section start takes the decoding copy instead.
	f, err = parseFlat(unaligned(data))
	if err != nil {
		t.Fatal(err)
	}
	if raw, err = f.section(0, SectionI32); err != nil {
		t.Fatal(err)
	}
	if s32 = f.Decode(testFourcc, "META").I32s(0); unsafePointerOf(s32byte(s32)) == unsafePointerOf(raw) {
		t.Error("unaligned access aliased the raw bytes")
	}
}

func unsafePointerOf(b []byte) uintptr {
	if len(b) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(&b[0]))
}

func s32byte(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

func TestFlatSectionKindMismatch(t *testing.T) {
	f, err := parseFlat(unaligned(buildTestFlat(t)))
	if err != nil {
		t.Fatal(err)
	}
	d := f.Decode(testFourcc, "META")
	if s := d.U8s(0); s != nil || !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("U8s over i32 section: %v, err = %v", s, d.Err())
	}
	// The error is sticky: a read that would succeed now returns nothing.
	if s := d.I32s(0); s != nil || !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("read after a failed one: %v, err = %v", s, d.Err())
	}
	d = f.Decode(testFourcc, "META")
	if s := d.I32s(99); s != nil || !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("out-of-range section: %v, err = %v", s, d.Err())
	}
}

// TestDecodeWrongKind: a container of another fourcc, or whose meta blob
// opens with another magic, fails the Reader before anything is read.
func TestDecodeWrongKind(t *testing.T) {
	f, err := parseFlat(unaligned(buildTestFlat(t)))
	if err != nil {
		t.Fatal(err)
	}
	d := f.Decode(0x20204843, "META") // "CH  "
	if s := d.I32s(0); s != nil || d.Err() == nil {
		t.Errorf("wrong fourcc: section %v, err = %v", s, d.Err())
	} else if msg := d.Err().Error(); !strings.Contains(msg, `"TEST"`) || !strings.Contains(msg, `"CH  "`) {
		t.Errorf("wrong fourcc error should name both kinds: %v", d.Err())
	}
	if d := f.Decode(testFourcc, "ATEM"); d.Err() == nil {
		t.Error("wrong meta magic accepted")
	}
}

func TestFlatBadMagic(t *testing.T) {
	data := buildTestFlat(t)
	data[0] ^= 0xff
	if _, err := parseFlat(data); !errors.Is(err, ErrNotFlat) {
		t.Errorf("bad magic: err = %v", err)
	}
}

func TestFlatBadVersion(t *testing.T) {
	data := buildTestFlat(t)
	data[12] = 9 // container version field
	_, err := parseFlat(data)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("version 9: err = %v", err)
	}
	if !strings.Contains(err.Error(), "9") || !strings.Contains(err.Error(), fmt.Sprint(FlatVersion)) {
		t.Errorf("version error should name both versions: %v", err)
	}
}

func TestFlatTruncations(t *testing.T) {
	data := buildTestFlat(t)
	// Any truncation must fail cleanly in the parse, the checksum sweep or
	// the accessors, and never panic or silently succeed with the final
	// byte removed.
	for _, cut := range []int{0, 4, len(FlatMagic), flatHeaderSize - 1, flatHeaderSize + 3,
		len(data) / 2, len(data) - 1} {
		f, err := parseFlat(unaligned(data[:cut]))
		if err == nil {
			err = f.Verify()
		}
		if err != nil {
			continue // rejected at parse time: good
		}
		d := f.Decode(testFourcc, "META")
		for i := 0; i < f.NumSections(); i++ {
			switch f.secs[i].kind {
			case SectionI32:
				d.I32s(i)
			case SectionU32:
				d.U32s(i)
			case SectionU8:
				d.U8s(i)
			case SectionI64:
				d.I64s(i)
			}
		}
		if d.Err() == nil {
			t.Errorf("truncation to %d bytes (of %d) was accepted", cut, len(data))
		}
	}
}

func TestFlatHostileSectionTable(t *testing.T) {
	data := buildTestFlat(t)
	// Section 0 offset pointing past the end of the file.
	mut := bytes.Clone(data)
	for i := 8; i < 16; i++ {
		mut[flatHeaderSize+i] = 0xff
	}
	if _, err := parseFlat(mut); !errors.Is(err, ErrCorrupt) {
		t.Errorf("hostile offset: err = %v", err)
	}
	// Meta length far beyond the file.
	mut = bytes.Clone(data)
	for i := 32; i < 40; i++ {
		mut[i] = 0x7f
	}
	if _, err := parseFlat(mut); !errors.Is(err, ErrCorrupt) {
		t.Errorf("hostile meta length: err = %v", err)
	}
}

func TestFlatNested(t *testing.T) {
	inner := buildTestFlat(t)
	fw := NewFlatWriter(0x5453454e) // "NEST"
	fw.U8Section(inner)
	fw.I32Section([]int32{42})
	var buf bytes.Buffer
	if _, err := fw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	outer, err := parseFlat(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d := outer.Decode(0x5453454e, "")
	nested := d.Nested(0)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	checkTestFlat(t, nested)
}

func TestOpenFlat(t *testing.T) {
	data := buildTestFlat(t)
	path := tempFile(t, "test.idx", data)
	for _, preferMmap := range []bool{false, true} {
		f, err := OpenFlat(path, preferMmap)
		if err != nil {
			t.Fatalf("preferMmap=%v: %v", preferMmap, err)
		}
		if preferMmap && MmapSupported && hostLittleEndian && !f.Mapped() {
			t.Errorf("preferMmap=%v: expected a mapped file", preferMmap)
		}
		if !preferMmap && f.Mapped() {
			t.Error("preferMmap=false produced a mapping")
		}
		if f.SizeBytes() != int64(len(data)) {
			t.Errorf("SizeBytes = %d, want %d", f.SizeBytes(), len(data))
		}
		checkTestFlat(t, f)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenFlat(path+".absent", true); err == nil {
		t.Error("opening a missing file succeeded")
	}
}

func TestReaderLimitBoundsReads(t *testing.T) {
	r := NewReaderLimit(strings.NewReader("abcdefgh"), 4)
	r.I64() // needs 8 bytes, only 4 allowed
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bounded read: err = %v", err)
	}
}
