// Layout-aware file corruption. Flipping a byte blindly is a weak test:
// it can land in the alignment padding between sections, the one region
// the checksums deliberately do not cover (no serving byte reads from
// it). The helpers here parse the container first and aim every flip at
// checksum-covered territory, so a surviving flip is a real detection
// failure, not a lucky miss.
package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"roadnet/internal/binio"
)

// Range is a half-open byte range [Off, Off+Len) of a flat file.
type Range struct{ Off, Len int64 }

// Layout describes the checksum-covered regions of a flat v2 file: the
// header/table/meta prefix (its trailing CRC included) and each section's
// payload. Alignment padding between regions is absent by design.
type Layout struct {
	Fourcc   uint32
	Size     int64
	Header   Range
	Sections []Range
}

// Covered returns every covered range in file order.
func (l Layout) Covered() []Range {
	return append([]Range{l.Header}, l.Sections...)
}

// ReadLayout parses the file's structure without verifying payloads (the
// caller is usually about to corrupt them).
func ReadLayout(path string) (Layout, error) {
	f, err := binio.OpenFlat(path, false, binio.WithoutVerify())
	if err != nil {
		return Layout{}, err
	}
	defer f.Close()
	l := Layout{
		Fourcc: f.Fourcc(),
		Size:   f.SizeBytes(),
		Header: Range{0, f.CoveredHeaderLen()},
	}
	for i := 0; i < f.NumSections(); i++ {
		off, size := f.SectionRange(i)
		if size > 0 {
			l.Sections = append(l.Sections, Range{off, size})
		}
	}
	return l, nil
}

// FlipByte XORs 0xff into the byte at off, in place.
func FlipByte(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0xff
	_, err = f.WriteAt(b[:], off)
	return err
}

// identityPrefix is the magic, fourcc and version fields. They are
// checksum-covered too, but flipping them changes what the file claims to
// be, which the readers answer with an error of their own (ErrNotFlat,
// ErrVersion, a fourcc mismatch) before any checksum runs — so FlipCovered
// aims past them at the bytes only a checksum can defend.
const identityPrefix = 16

// FlipCovered flips one rng-chosen byte inside the file's checksum-covered
// regions (identity prefix excepted, see above) and returns its offset, so
// a failing test can name the byte that went undetected.
func FlipCovered(path string, rng *rand.Rand) (int64, error) {
	l, err := ReadLayout(path)
	if err != nil {
		return 0, err
	}
	ranges := l.Covered()
	if len(ranges) > 0 && ranges[0].Off == 0 && ranges[0].Len > identityPrefix {
		ranges[0] = Range{identityPrefix, ranges[0].Len - identityPrefix}
	}
	if len(ranges) == 0 {
		return 0, fmt.Errorf("chaos: %s has no checksum-covered bytes", path)
	}
	var total int64
	for _, r := range ranges {
		total += r.Len
	}
	pick := rng.Int63n(total)
	for _, r := range ranges {
		if pick < r.Len {
			off := r.Off + pick
			return off, FlipByte(path, off)
		}
		pick -= r.Len
	}
	panic("unreachable")
}

// Truncate cuts the file to n bytes.
func Truncate(path string, n int64) error {
	return os.Truncate(path, n)
}

// Clone copies src to dst. Tests corrupt the clone and keep the pristine
// file for the next case.
func Clone(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
