package binio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrCorrupt tags decoding failures caused by corrupt (or hostile) input:
// truncated sections, checksum mismatches, reads past a declared size.
// Callers can errors.Is against it to distinguish bad files from IO
// failures.
var ErrCorrupt = errors.New("binio: corrupt data")

// Writer wraps a buffered writer with sticky error handling: after the
// first failure every Write* call is a no-op and Flush reports the error.
type Writer struct {
	w   *bufio.Writer
	err error
	buf [8]byte
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Flush flushes buffered data and returns the first error encountered.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
}

// Magic writes a fixed identification string.
func (w *Writer) Magic(s string) { w.write([]byte(s)) }

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	w.buf[0] = v
	w.write(w.buf[:1])
}

// I64 writes an int64.
func (w *Writer) I64(v int64) {
	binary.LittleEndian.PutUint64(w.buf[:8], uint64(v))
	w.write(w.buf[:8])
}

// I32 writes an int32.
func (w *Writer) I32(v int32) {
	binary.LittleEndian.PutUint32(w.buf[:4], uint32(v))
	w.write(w.buf[:4])
}

// U32 writes a uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

// Err returns the sticky error.
func (w *Writer) Err() error { return w.err }

// Reader wraps a buffered reader with sticky error handling. It is bounded
// by the number of bytes known to remain in the input; a read past that
// budget fails with ErrCorrupt. A Reader from FlatFile.Decode also hands
// out that container's sections (flat.go) under the same sticky error, so a
// loader reads everything and checks Err once.
type Reader struct {
	r   *bufio.Reader
	err error
	buf [8]byte
	// remaining is the byte budget left.
	remaining int64
	// f is the container whose sections this Reader serves; nil for a
	// Reader over a bare stream.
	f *FlatFile
}

// NewReaderLimit returns a Reader on r that treats size as the number of
// bytes available: reads exceeding it fail with an error wrapping
// ErrCorrupt.
func NewReaderLimit(r io.Reader, size int64) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16), remaining: size}
}

// Err returns the sticky error.
func (r *Reader) Err() error { return r.err }

func (r *Reader) read(p []byte) {
	if r.err != nil {
		return
	}
	if int64(len(p)) > r.remaining {
		r.err = fmt.Errorf("%w: read of %d bytes exceeds the %d remaining in the input",
			ErrCorrupt, len(p), r.remaining)
		return
	}
	r.remaining -= int64(len(p))
	_, r.err = io.ReadFull(r.r, p)
}

// Magic consumes and verifies a fixed identification string.
func (r *Reader) Magic(want string) {
	got := make([]byte, len(want))
	r.read(got)
	if r.err == nil && string(got) != want {
		r.err = fmt.Errorf("%w: bad magic %q, want %q", ErrCorrupt, got, want)
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	r.read(r.buf[:1])
	return r.buf[0]
}

// I64 reads an int64.
func (r *Reader) I64() int64 {
	r.read(r.buf[:8])
	return int64(binary.LittleEndian.Uint64(r.buf[:8]))
}

// I32 reads an int32.
func (r *Reader) I32() int32 {
	r.read(r.buf[:4])
	return int32(binary.LittleEndian.Uint32(r.buf[:4]))
}
