package binio

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRoundtripPrimitives(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("HDR1")
	w.U8(7)
	w.I32(-42)
	w.I64(1 << 50)
	w.U32(1 << 31)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReaderLimit(&buf, int64(buf.Len()))
	r.Magic("HDR1")
	if v := r.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := r.I32(); v != -42 {
		t.Errorf("I32 = %d", v)
	}
	if v := r.I64(); v != 1<<50 {
		t.Errorf("I64 = %d", v)
	}
	if v := r.I32(); uint32(v) != 1<<31 {
		t.Errorf("U32 read back as %d", uint32(v))
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundtripProperty(t *testing.T) {
	f := func(a int32, b uint8, c int64) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.I32(a)
		w.U8(b)
		w.I64(c)
		if w.Flush() != nil {
			return false
		}
		r := NewReaderLimit(&buf, int64(buf.Len()))
		ga, gb, gc := r.I32(), r.U8(), r.I64()
		return r.Err() == nil && ga == a && gb == b && gc == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBadMagic(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("AAAA")
	_ = w.Flush()
	r := NewReaderLimit(&buf, int64(buf.Len()))
	r.Magic("BBBB")
	if r.Err() == nil {
		t.Error("expected magic mismatch error")
	}
}

func TestTruncatedInput(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.I64(1)
	w.I64(2)
	_ = w.Flush()
	r := NewReaderLimit(bytes.NewReader(buf.Bytes()[:12]), 16) // cut mid-value
	r.I64()
	r.I64()
	if r.Err() == nil {
		t.Error("expected truncation error")
	}
}

func TestStickyErrors(t *testing.T) {
	r := NewReaderLimit(bytes.NewReader(nil), 8)
	r.I64() // fails: empty input
	if r.Err() == nil {
		t.Fatal("expected error on empty input")
	}
	// Further reads stay failed and return zero values.
	if v := r.I32(); v != 0 {
		t.Errorf("read after error returned %d", v)
	}
}
