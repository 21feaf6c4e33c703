package binio

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"unsafe"
)

func TestFlatChecksumRoundtrip(t *testing.T) {
	f, err := parseFlat(unaligned(buildTestFlat(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify on pristine container: %v", err)
	}
	checkTestFlat(t, f)
}

// TestFlatChecksumDetectsEveryByteFlip flips every meaningful byte of the
// container (header, table, meta, trailing CRC, section payloads —
// everything but alignment padding) and checks that opening the file
// rejects each mutation with a typed error.
func TestFlatChecksumDetectsEveryByteFlip(t *testing.T) {
	pristine := buildTestFlat(t)
	f, err := parseFlat(pristine)
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]bool, len(pristine))
	for i := int64(0); i < f.metaEnd+4; i++ {
		covered[i] = true
	}
	for _, s := range f.secs {
		if len(s.data) == 0 {
			continue
		}
		start := int64(uintptrOf(s.data) - uintptrOf(pristine))
		for j := int64(0); j < int64(len(s.data)); j++ {
			covered[start+j] = true
		}
	}
	for i, c := range covered {
		if !c {
			continue
		}
		mut := bytes.Clone(pristine)
		mut[i] ^= 0x40
		ff, err := OpenFlat(tempFile(t, "flip.flat", mut), false)
		if err == nil {
			t.Fatalf("byte flip at offset %d went undetected", i)
		}
		if ff != nil {
			t.Fatalf("byte flip at offset %d returned a non-nil file", i)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotFlat) && !errors.Is(err, ErrVersion) {
			t.Fatalf("byte flip at offset %d: untyped error %v", i, err)
		}
	}
}

func uintptrOf(b []byte) uintptr {
	if len(b) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(&b[0]))
}

func TestFlatChecksummedTruncation(t *testing.T) {
	data := buildTestFlat(t)
	f, err := parseFlat(data)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file off right before the trailing header CRC: the structural
	// parse must already refuse it.
	if _, err := parseFlat(data[:f.metaEnd+3]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncation before header CRC: err = %v, want ErrCorrupt", err)
	}
	// Cut mid-section: the table bounds check refuses it.
	if _, err := parseFlat(data[:len(data)-1]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncation mid-section: err = %v, want ErrCorrupt", err)
	}
}

// TestFlatNestedCoveredByParent checks that corruption inside a nested
// container is caught by the parent's section checksum even though
// Reader.Nested itself never verifies.
func TestFlatNestedCoveredByParent(t *testing.T) {
	inner := NewFlatWriter(testFourcc)
	inner.Meta().Magic("NEST")
	inner.I32Section([]int32{4, 5, 6})
	var ibuf bytes.Buffer
	if _, err := inner.WriteTo(&ibuf); err != nil {
		t.Fatal(err)
	}
	outer := NewFlatWriter(testFourcc)
	outer.Meta().Magic("OUTR")
	outer.U8Section(ibuf.Bytes())
	var obuf bytes.Buffer
	if _, err := outer.WriteTo(&obuf); err != nil {
		t.Fatal(err)
	}
	data := obuf.Bytes()

	f, err := parseFlat(unaligned(data))
	if err != nil {
		t.Fatal(err)
	}
	d := f.Decode(testFourcc, "OUTR")
	nested := d.Nested(0)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	nd := nested.Decode(testFourcc, "NEST")
	if s := nd.I32s(0); nd.Err() != nil || len(s) != 3 || s[2] != 6 {
		t.Fatalf("nested I32s(0) = %v, %v", s, nd.Err())
	}

	// Corrupt a byte inside the nested container's payload region.
	raw, err := parseFlat(data)
	if err != nil {
		t.Fatal(err)
	}
	sectionStart := int(uintptrOf(raw.secs[0].data) - uintptrOf(data))
	mut := bytes.Clone(data)
	mut[sectionStart+len(raw.secs[0].data)-1] ^= 0x01
	if _, err := OpenFlat(tempFile(t, "nested.flat", mut), false); !errors.Is(err, ErrCorrupt) {
		t.Errorf("nested corruption: parent open err = %v, want ErrCorrupt", err)
	}
}

// TestOpenFlatVerifyPolicy pins the one policy: an open verifies, heap or
// mapped, unless WithoutVerify — and then an explicit Verify still can.
func TestOpenFlatVerifyPolicy(t *testing.T) {
	data := buildTestFlat(t)
	f, err := parseFlat(data)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte of the last non-empty section's payload — after the
	// header region, so the structural parse still succeeds.
	var corruptAt int
	for _, s := range f.secs {
		if len(s.data) > 0 {
			corruptAt = int(uintptrOf(s.data) - uintptrOf(data))
		}
	}
	mut := bytes.Clone(data)
	mut[corruptAt] ^= 0x80
	path := tempFile(t, "corrupt.flat", mut)

	for _, mmap := range []bool{false, true} {
		if _, err := OpenFlat(path, mmap); !errors.Is(err, ErrCorrupt) {
			t.Errorf("open of corrupt file (mmap=%v): err = %v, want ErrCorrupt", mmap, err)
		}
		// WithoutVerify: opens, reports itself unverified, and an explicit
		// Verify catches the flip.
		f, err := OpenFlat(path, mmap, WithoutVerify())
		if err != nil {
			t.Fatalf("open WithoutVerify (mmap=%v): %v", mmap, err)
		}
		if f.Verified() {
			t.Errorf("WithoutVerify open (mmap=%v) claims Verified", mmap)
		}
		if err := f.Verify(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("explicit Verify (mmap=%v): err = %v, want ErrCorrupt", mmap, err)
		}
		f.Close()
	}

	// A pristine file passes under both policies.
	good := tempFile(t, "good.flat", data)
	for _, opts := range [][]OpenOption{nil, {WithoutVerify()}} {
		for _, mmap := range []bool{false, true} {
			fg, err := OpenFlat(good, mmap, opts...)
			if err != nil {
				t.Fatalf("pristine open (mmap=%v, %d opts): %v", mmap, len(opts), err)
			}
			if fg.Verified() != (opts == nil) {
				t.Errorf("pristine open (mmap=%v, %d opts): Verified = %v", mmap, len(opts), fg.Verified())
			}
			if err := fg.Verify(); err != nil || !fg.Verified() {
				t.Errorf("pristine Verify (mmap=%v): %v, Verified = %v", mmap, err, fg.Verified())
			}
			fg.Close()
		}
	}
}

// TestNilFlatFile pins what a nil backing answers for an object built in
// this process: not mapped, verified, nothing to close.
func TestNilFlatFile(t *testing.T) {
	var f *FlatFile
	if f.Mapped() || !f.Verified() {
		t.Errorf("nil file: Mapped=%v Verified=%v", f.Mapped(), f.Verified())
	}
	if err := f.Close(); err != nil {
		t.Errorf("nil file: Close = %v", err)
	}
}

func TestFlatCloseIdempotent(t *testing.T) {
	data := buildTestFlat(t)
	path := tempFile(t, "idx.flat", data)
	for _, mmap := range []bool{false, MmapSupported} {
		f, err := OpenFlat(path, mmap)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("first Close (mmap=%v): %v", mmap, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("second Close (mmap=%v): %v", mmap, err)
		}
	}
}

// TestFlatCloseConcurrent races many Close calls; exactly one may perform
// the release (the injected unmap counts invocations). Run under -race.
func TestFlatCloseConcurrent(t *testing.T) {
	data := buildTestFlat(t)
	f, err := parseFlat(data)
	if err != nil {
		t.Fatal(err)
	}
	var calls int32
	var mu sync.Mutex
	f.unmap = func() error {
		mu.Lock()
		calls++
		mu.Unlock()
		return nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f.Close(); err != nil {
				t.Errorf("racing Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("unmap ran %d times, want exactly 1", calls)
	}
}

// TestFlatCloseErrorPropagates injects a failing unmap and checks the
// error surfaces from the first Close only.
func TestFlatCloseErrorPropagates(t *testing.T) {
	data := buildTestFlat(t)
	f, err := parseFlat(data)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("munmap: injected failure")
	f.unmap = func() error { return boom }
	if err := f.Close(); !errors.Is(err, boom) {
		t.Fatalf("first Close = %v, want injected error", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close after failed unmap = %v, want nil", err)
	}
}
