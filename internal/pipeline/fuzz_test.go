package pipeline

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io/fs"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"socialrec/internal/faults"
	"socialrec/internal/frame"
	"socialrec/internal/telemetry"
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

// FuzzStoreLoad: LoadArtifact and LoadReceipt never panic, and whatever
// they accept comes back unchanged after a save and a second load. The
// artifact's value is an int64Spec value. Each
// input is tried as both files, once as the whole file and once as a frame
// body under the file's magic and a valid checksum, so the field decoding
// meets fuzzed bytes too. Spend floats compare bit for bit, so a NaN must
// come back as itself.
func FuzzStoreLoad(f *testing.F) {
	m := memFS{}
	s, _, err := OpenStore("ckpt", m)
	if err != nil {
		f.Fatal(err)
	}
	spec := int64Spec("a", "x", 0)
	save := func(s *Store, a Artifact, v int64) error {
		return s.SaveArtifact(a, func(w *frame.Writer) error { return spec.Encode(w, v) })
	}
	load := func(s *Store) (a *Artifact, v int64, err error) {
		a, err = s.LoadArtifact("x", func(r *frame.Reader) (err error) {
			v, err = spec.Decode(r)
			return err
		})
		return a, v, err
	}
	artPath := filepath.Join("ckpt", "x"+artifactSuffix)
	rcPath := filepath.Join("ckpt", "s"+receiptSuffix)
	for _, a := range []struct {
		Artifact
		v int64
	}{
		{Artifact{Stage: "a", Key: "x", Version: 1, Fingerprint: 42}, 7},
		{Artifact{Key: "x"}, -1},
	} {
		if err := save(s, a.Artifact, a.v); err != nil {
			f.Fatal(err)
		}
		f.Add(m[artPath])
		f.Add(m[artPath][len(artifactMagic) : len(m[artPath])-4])
	}
	for _, rc := range []Receipt{
		{Stage: "s"},
		{Stage: "s", Version: 2, Fingerprint: 9, Outputs: []string{"x", "y"},
			Spends: []telemetry.ReleaseEvent{{Mechanism: "cluster", Epsilon: 0.5, Sensitivity: 1, Values: 12}}},
	} {
		if err := s.SaveReceipt(rc); err != nil {
			f.Fatal(err)
		}
		f.Add(m[rcPath])
		f.Add(m[rcPath][len(receiptMagic) : len(m[rcPath])-4])
	}
	files := func(magic string, data []byte) [][]byte {
		framed := append([]byte(magic), data...)
		return [][]byte{data, binary.LittleEndian.AppendUint32(framed, crc32.ChecksumIEEE(data))}
	}
	bits := func(rc *Receipt) Receipt {
		out := *rc
		out.Spends = append([]telemetry.ReleaseEvent(nil), rc.Spends...)
		for i, ev := range out.Spends {
			out.Spends[i].Epsilon = float64(math.Float64bits(ev.Epsilon))
			out.Spends[i].Sensitivity = float64(math.Float64bits(ev.Sensitivity))
		}
		return out
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range files(artifactMagic, data) {
			s := &Store{dir: "ckpt", fsys: memFS{artPath: file}}
			a, v, err := load(s)
			if err != nil {
				continue
			}
			if err := save(s, *a, v); err != nil {
				t.Fatal(err)
			}
			again, againV, err := load(s)
			if err != nil || !reflect.DeepEqual(again, a) || againV != v {
				t.Fatalf("accepted artifact %+v (value %d) read back as %+v (value %d, err=%v)", a, v, again, againV, err)
			}
		}
		for _, file := range files(receiptMagic, data) {
			s := &Store{dir: "ckpt", fsys: memFS{rcPath: file}}
			rc, err := s.LoadReceipt("s")
			if err != nil {
				continue
			}
			if err := s.SaveReceipt(*rc); err != nil {
				t.Fatal(err)
			}
			again, err := s.LoadReceipt("s")
			if err != nil || !reflect.DeepEqual(bits(again), bits(rc)) {
				t.Fatalf("accepted receipt %+v read back as %+v (err=%v)", rc, again, err)
			}
		}
	})
}
