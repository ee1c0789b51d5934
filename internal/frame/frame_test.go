package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"socialrec/internal/faults"
)

const testMagic = "SOCTSTv1"

type record struct {
	U8    uint8
	U32   uint32
	U64   uint64
	I32   int32
	F64   float64
	Str   string
	I32s  []int32
	F64s  []float64
	Bools []bool
}

func (rec *record) encode(w *Writer) {
	w.U8(rec.U8)
	w.U32(rec.U32)
	w.U64(rec.U64)
	w.I32(rec.I32)
	w.F64(rec.F64)
	w.String(rec.Str)
	w.I32s(rec.I32s)
	w.F64s(rec.F64s)
	w.Bools(rec.Bools)
}

func decodeRecord(r *Reader) *record {
	return &record{
		U8:    r.U8("u8"),
		U32:   r.U32("u32"),
		U64:   r.U64("u64"),
		I32:   r.I32("i32"),
		F64:   r.F64("f64"),
		Str:   r.String("str"),
		I32s:  r.I32s("i32s"),
		F64s:  r.F64s("f64s"),
		Bools: r.Bools("bools"),
	}
}

func sample() *record {
	rec := &record{
		U8: 7, U32: 1 << 31, U64: math.MaxUint64, I32: -5, F64: math.Inf(1), Str: "CN",
		I32s: []int32{0, -1, 1 << 30}, Bools: []bool{true, false, true},
	}
	// More than one chunk, so the chunked paths run.
	for i := 0; i < 3*chunk/8+5; i++ {
		rec.F64s = append(rec.F64s, float64(i)/3)
	}
	return rec
}

func encoded(t *testing.T, rec *record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, testMagic)
	rec.encode(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	want := sample()
	data := encoded(t, want)
	// A bytes.Reader tells its length, so slices are allocated whole; the
	// bare io.Reader hides it, so they grow chunk by chunk.
	for _, in := range []io.Reader{bytes.NewReader(data), struct{ io.Reader }{bytes.NewReader(data)}} {
		r := NewReader(in, testMagic)
		got := decodeRecord(r)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip through %T changed the record", in)
		}
	}
	// Empty slices decode as empty, not nil, and the layout is exactly
	// magic + fields + CRC.
	data = encoded(t, &record{})
	if want := len(testMagic) + 1 + 4 + 8 + 4 + 8 + 4*4 + 4; len(data) != want {
		t.Fatalf("empty record is %d bytes, want %d", len(data), want)
	}
	r := NewReader(bytes.NewReader(data), testMagic)
	if got := decodeRecord(r); got.I32s == nil || got.F64s == nil || got.Bools == nil {
		t.Fatal("empty slices decoded as nil")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionDetected: every truncation and every byte flip of a small
// frame fails, by the time Close returns.
func TestCorruptionDetected(t *testing.T) {
	rec := sample()
	rec.F64s = rec.F64s[:3]
	good := encoded(t, rec)
	try := func(data []byte) error {
		r := NewReader(bytes.NewReader(data), testMagic)
		decodeRecord(r)
		return r.Close()
	}
	for n := 0; n < len(good); n++ {
		if try(good[:n]) == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	for i := range good {
		flipped := bytes.Clone(good)
		flipped[i] ^= 0x20
		if try(flipped) == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
}

// TestErrorsNameFieldNotValue: an error says which field failed, and never
// repeats what was read.
func TestErrorsNameFieldNotValue(t *testing.T) {
	r := NewReader(strings.NewReader("SECRETv9 and more"), testMagic)
	if err := r.Close(); err == nil || strings.Contains(err.Error(), "SECRET") {
		t.Fatalf("wrong magic: %v", err)
	}
	var buf bytes.Buffer
	buf.WriteString(testMagic)
	buf.Write(binary.LittleEndian.AppendUint32([]byte{1}, 77777)) // u8, u32, then EOF
	r = NewReader(&buf, testMagic)
	decodeRecord(r)
	err := r.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "u64") || strings.Contains(err.Error(), "77777") {
		t.Fatalf("truncated field: %v", err)
	}
}

// TestCountAllocationBounded: a count the input cannot back costs an
// allocation bounded by the chunk size, not count × element size.
func TestCountAllocationBounded(t *testing.T) {
	header := append([]byte(testMagic), 0xff, 0xff, 0xff, 0xff)
	for name, read := range map[string]func(*Reader){
		"string": func(r *Reader) { r.String("s") },
		"i32s":   func(r *Reader) { r.I32s("s") },
		"f64s":   func(r *Reader) { r.F64s("s") },
		"bools":  func(r *Reader) { r.Bools("s") },
	} {
		alloc := allocated(func() {
			r := NewReader(bytes.NewReader(header), testMagic)
			read(r)
			if r.Close() == nil {
				t.Errorf("%s: empty body accepted", name)
			}
		})
		if alloc >= 1<<20 {
			t.Errorf("%s: a bare count allocated %d bytes", name, alloc)
		}
	}
}

func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFileRoundTripAndVerifiedDecode: WriteFile/ReadFile round-trip, and
// ReadFile refuses a corrupted file before decode sees a field.
func TestFileRoundTripAndVerifiedDecode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec")
	want := sample()
	if err := WriteFile(faults.OS{}, path, testMagic, func(w *Writer) error {
		want.encode(w)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var got *record
	if err := ReadFile(faults.OS{}, path, testMagic, func(r *Reader) error {
		got = decodeRecord(r)
		return r.Err()
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("file round trip changed the record")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(testMagic)+2] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	decoded := false
	err = ReadFile(faults.OS{}, path, testMagic, func(*Reader) error { decoded = true; return nil })
	if !errors.Is(err, errChecksum) || decoded {
		t.Fatalf("corrupt file: err=%v decoded=%v", err, decoded)
	}
	err = ReadFile(faults.OS{}, path+".missing", testMagic, func(*Reader) error { return nil })
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
}
