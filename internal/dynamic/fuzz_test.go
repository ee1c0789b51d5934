package dynamic

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io/fs"
	"testing"

	"socialrec/internal/faults"
)

// memFS is an in-memory faults.FS. The fuzz target runs on it, a fresh one
// per input, because the fuzzer steers by coverage and the real
// filesystem's code paths differ from call to call.
type memFS map[string][]byte

func (m memFS) Open(name string) (faults.File, error) {
	b, ok := m[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &memFile{Reader: bytes.NewReader(b)}, nil
}

func (m memFS) Create(name string) (faults.File, error) {
	m[name] = nil
	return &memFile{fs: m, name: name}, nil
}

func (m memFS) Rename(oldname, newname string) error {
	m[newname] = m[oldname]
	delete(m, oldname)
	return nil
}

func (m memFS) Remove(name string) error         { delete(m, name); return nil }
func (m memFS) ReadDir(string) ([]string, error) { return nil, nil }
func (m memFS) MkdirAll(string) error            { return nil }
func (m memFS) SyncDir(string) error             { return nil }

// memFile reads a snapshot of a file or appends to one.
type memFile struct {
	*bytes.Reader
	fs   memFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs[f.name] = append(f.fs[f.name], p...)
	return len(p), nil
}

func (*memFile) Sync() error  { return nil }
func (*memFile) Close() error { return nil }

// FuzzReadIntent: readIntent never panics, and an intent it accepts comes
// back unchanged after writeIntent and a second readIntent. Each input is
// read twice: as the whole file, and as a frame body under a valid
// checksum, so the field decoding and its range checks meet fuzzed bytes
// too.
func FuzzReadIntent(f *testing.F) {
	for _, st := range []intentState{
		{},
		{Releases: 1, Spent: 0.3, Seq: 9, Version: 1, Kind: intentFull},
		{Releases: 3, Spent: 1.2, PrevSeq: 40, Seq: 57, Version: 4, Kind: intentDelta, Base: 3},
	} {
		m := memFS{}
		if err := writeIntent(m, "seed", st); err != nil {
			f.Fatal(err)
		}
		f.Add(m["seed"])
		f.Add(m["seed"][len(intentMagic) : len(m["seed"])-4])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		framed := append([]byte(intentMagic), data...)
		framed = binary.LittleEndian.AppendUint32(framed, crc32.ChecksumIEEE(data))
		for _, file := range [][]byte{data, framed} {
			m := memFS{"in": file}
			st, ok, err := readIntent(m, "in")
			if err != nil || !ok {
				continue
			}
			if err := writeIntent(m, "out", st); err != nil {
				t.Fatal(err)
			}
			again, ok, err := readIntent(m, "out")
			if err != nil || !ok || again != st {
				t.Fatalf("accepted intent %+v read back as %+v (ok=%v, err=%v)", st, again, ok, err)
			}
		}
	})
}
