// Package frame is the one binary codec under the repository's on-disk
// formats (all but the WAL's append-only segments). Every file is one
// frame:
//
//	magic   the format's name and version, e.g. "SOCRECv2"
//	fields  the format's fields, in the order its encoder writes them
//	crc32   uint32, IEEE, over every byte after the magic
//
// Fields are little-endian. u8, u32, u64, i32 and f64 are fixed-width
// words. Strings and slices are a u32 element count followed by the
// elements, bools one byte each. Each format lists its fields beside its
// encoder.
//
// A Reader checks the CRC only at the end, so a decoder runs on bytes not
// yet verified. Two rules keep that safe: a slice's count alone never
// sizes an allocation beyond the input that could back it, and errors
// name the field that failed but never echo a decoded value.
package frame

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"io/fs"
	"math"

	"socialrec/internal/faults"
)

// chunk is how many bytes of a slice are encoded or decoded at a time. On
// an input of unknown length it bounds what a slice's count alone can make
// a Reader allocate.
const chunk = 1 << 16

// Writer encodes one frame. Field methods record the first error and turn
// every later call into a no-op; Close reports it.
type Writer struct {
	w    *bufio.Writer
	crc  hash.Hash32
	err  error
	word [8]byte
	buf  []byte
}

// NewWriter starts a frame on w by writing magic.
func NewWriter(w io.Writer, magic string) *Writer {
	fw := &Writer{w: bufio.NewWriter(w), crc: crc32.NewIEEE()}
	_, fw.err = fw.w.WriteString(magic)
	return fw
}

func (w *Writer) put(p []byte) {
	if w.err != nil {
		return
	}
	w.crc.Write(p)
	_, w.err = w.w.Write(p)
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.word[0] = v; w.put(w.word[:1]) }

// U32 writes a 32-bit word.
func (w *Writer) U32(v uint32) { binary.LittleEndian.PutUint32(w.word[:], v); w.put(w.word[:4]) }

// U64 writes a 64-bit word.
func (w *Writer) U64(v uint64) { binary.LittleEndian.PutUint64(w.word[:], v); w.put(w.word[:8]) }

// I32 writes a signed 32-bit word.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// F64 writes a float64's IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String writes a count-prefixed string.
func (w *Writer) String(s string) {
	w.count(len(s))
	w.put([]byte(s))
}

// I32s writes a count-prefixed []int32.
func (w *Writer) I32s(s []int32) { putSlice(w, s) }

// F64s writes a count-prefixed []float64.
func (w *Writer) F64s(s []float64) { putSlice(w, s) }

// Bools writes a count-prefixed []bool, one byte each.
func (w *Writer) Bools(s []bool) { putSlice(w, s) }

func (w *Writer) count(n int) {
	if uint64(n) > math.MaxUint32 && w.err == nil {
		w.err = fmt.Errorf("frame: %d elements overflow a u32 count", n)
	}
	w.U32(uint32(n))
}

func putSlice[T element](w *Writer, s []T) {
	size := sizeOf[T]()
	w.count(len(s))
	if w.buf == nil && len(s) > 0 {
		w.buf = make([]byte, chunk)
	}
	for len(s) > 0 && w.err == nil {
		k := min(len(s), chunk/size)
		encode(w.buf[:k*size], s[:k])
		w.put(w.buf[:k*size])
		s = s[k:]
	}
}

// Close appends the CRC and flushes. It reports the first error any field
// hit; the frame is complete only when it returns nil.
func (w *Writer) Close() error {
	if w.err == nil {
		binary.LittleEndian.PutUint32(w.word[:], w.crc.Sum32())
		_, w.err = w.w.Write(w.word[:4])
	}
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}

// Reader decodes one frame. Field methods take the field's name for error
// messages, record the first error and return zero values after it; Err
// reports it, Close also checks the CRC.
type Reader struct {
	r     *bufio.Reader
	crc   hash.Hash32
	magic string
	err   error
	word  [8]byte
	buf   []byte
	// size is the input's length when it is known cheaply, else -1; read
	// counts the bytes consumed, magic included.
	size, read int64
}

// NewReader starts decoding a frame from r, checking its magic.
func NewReader(r io.Reader, magic string) *Reader {
	fr := &Reader{r: bufio.NewReader(r), crc: crc32.NewIEEE(), magic: magic, size: inputLen(r), read: int64(len(magic))}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(fr.r, head); err != nil {
		fr.fail("magic", err)
	} else if string(head) != magic {
		fr.err = fmt.Errorf("frame: not a %s frame (another format, or another version of it)", magic)
	}
	return fr
}

// inputLen reports an upper bound on r's unread length when r can tell
// cheaply — an in-memory reader's remaining bytes, a regular file's size —
// and -1 otherwise.
func inputLen(r io.Reader) int64 {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return -1
}

func (r *Reader) fail(field string, err error) {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // a frame never ends before its CRC
	}
	r.err = fmt.Errorf("frame: %s: reading %s: %w", r.magic, field, err)
}

// next reads the next n ≤ chunk bytes of field into scratch space that the
// following call reuses.
func (r *Reader) next(field string, n int) []byte {
	if r.err != nil {
		return nil
	}
	b := r.word[:]
	if n > len(b) {
		if r.buf == nil {
			r.buf = make([]byte, chunk)
		}
		b = r.buf
	}
	b = b[:n]
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.fail(field, err)
		return nil
	}
	r.crc.Write(b)
	r.read += int64(n)
	return b
}

// U8 reads one byte.
func (r *Reader) U8(field string) uint8 {
	if b := r.next(field, 1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a 32-bit word.
func (r *Reader) U32(field string) uint32 {
	if b := r.next(field, 4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a 64-bit word.
func (r *Reader) U64(field string) uint64 {
	if b := r.next(field, 8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I32 reads a signed 32-bit word.
func (r *Reader) I32(field string) int32 { return int32(r.U32(field)) }

// F64 reads a float64.
func (r *Reader) F64(field string) float64 { return math.Float64frombits(r.U64(field)) }

// String reads a count-prefixed string.
func (r *Reader) String(field string) string {
	return string(getSlice[byte](r, field))
}

// I32s reads a count-prefixed []int32.
func (r *Reader) I32s(field string) []int32 {
	return getSlice[int32](r, field)
}

// F64s reads a count-prefixed []float64.
func (r *Reader) F64s(field string) []float64 {
	return getSlice[float64](r, field)
}

// Bools reads a count-prefixed []bool.
func (r *Reader) Bools(field string) []bool {
	return getSlice[bool](r, field)
}

// getSlice reads a count and then the elements, chunk bytes at a time. A
// count the input's known length can back is allocated whole. Otherwise
// capacity at most doubles per chunk that arrives, so a count the input
// cannot back allocates about twice the bytes actually read, not count ×
// size.
func getSlice[T element](r *Reader, field string) []T {
	size := sizeOf[T]()
	n := int(r.U32(field))
	c := min(n, chunk/size)
	if r.size >= 0 && int64(n)*int64(size) <= r.size-r.read {
		c = n
	}
	out := make([]T, 0, c)
	for len(out) < n {
		k := min(n-len(out), chunk/size)
		b := r.next(field, k*size)
		if b == nil {
			return nil
		}
		if cap(out)-len(out) < k {
			out = append(make([]T, 0, min(n, 2*cap(out))), out...)
		}
		out = out[:len(out)+k]
		decode(out[len(out)-k:], b)
	}
	if r.err != nil {
		return nil
	}
	return out
}

// element is a type a slice field can carry.
type element interface{ byte | bool | int32 | float64 }

// sizeOf is an element's encoded width in bytes.
func sizeOf[T element]() int {
	var v T
	switch any(v).(type) {
	case int32:
		return 4
	case float64:
		return 8
	}
	return 1
}

// encode writes s into b, size bytes per element.
func encode[T element](b []byte, s []T) {
	switch s := any(s).(type) {
	case []byte:
		copy(b, s)
	case []bool:
		for i, v := range s {
			b[i] = 0
			if v {
				b[i] = 1
			}
		}
	case []int32:
		for i, v := range s {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
	case []float64:
		for i, v := range s {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
	}
}

// decode fills s from b, the inverse of encode.
func decode[T element](s []T, b []byte) {
	switch s := any(s).(type) {
	case []byte:
		copy(s, b)
	case []bool:
		for i := range s {
			s[i] = b[i] != 0
		}
	case []int32:
		for i := range s {
			s[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	case []float64:
		for i := range s {
			s[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// Err reports the first error any field hit. It does not check the CRC.
func (r *Reader) Err() error { return r.err }

// Close reads the trailing CRC and checks it against every byte after the
// magic. It reports the first error any field hit; decoded values are
// trustworthy only when it returns nil.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	sum := r.crc.Sum32()
	if b := r.next("checksum", 4); b != nil && binary.LittleEndian.Uint32(b) != sum {
		r.err = fmt.Errorf("frame: %s: %w", r.magic, errChecksum)
	}
	return r.err
}

// WriteFile writes one frame to path with faults.WriteAtomicFunc's
// crash-safe discipline, so path holds either its old contents or the
// whole new frame.
func WriteFile(fsys faults.FS, path, magic string, encode func(*Writer) error) error {
	return faults.WriteAtomicFunc(fsys, path, func(w io.Writer) error {
		fw := NewWriter(w, magic)
		if err := encode(fw); err != nil {
			return err
		}
		return fw.Close()
	})
}

// errChecksum reports a frame whose CRC does not match its bytes.
var errChecksum = errors.New("checksum mismatch (file corrupted)")

// ReadFile decodes the frame at path. It reads the file whole and checks
// magic and CRC before decode sees a field, so a small record is decoded
// from verified bytes only. A missing file's error matches fs.ErrNotExist.
func ReadFile(fsys faults.FS, path, magic string, decode func(*Reader) error) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("frame: %s: %w", magic, err)
	}
	r := NewReader(bytes.NewReader(data), magic)
	if r.err != nil {
		return r.err
	}
	end := len(data) - 4
	if end < len(magic) || crc32.ChecksumIEEE(data[len(magic):end]) != binary.LittleEndian.Uint32(data[end:]) {
		return fmt.Errorf("frame: %s: %w", magic, errChecksum)
	}
	if err := decode(r); err != nil {
		return err
	}
	return r.Close()
}
