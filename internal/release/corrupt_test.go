package release

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	"socialrec/internal/community"
)

// goodReleaseBytes serializes a small but non-trivial release.
func goodReleaseBytes(t testing.TB) []byte {
	t.Helper()
	cl, err := community.FromAssignment([]int32{0, 0, 1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, &Release{
		Epsilon:  0.25,
		Measure:  "AA",
		Clusters: cl,
		NumItems: 3,
		Avg:      []float64{1, 2, 3, 4, 5, 6, 7, 8, 9},
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goodManifestAndShard serializes the manifest and shard 0 of a 2-shard
// split of the shard fixture.
func goodManifestAndShard(t testing.TB) (manifest, shard []byte) {
	t.Helper()
	rel, social, clusterShard := shardFixture(t)
	m, shards, err := SplitRelease(rel, social, clusterShard, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var mb, sb bytes.Buffer
	if err := WriteManifest(&mb, m); err != nil {
		t.Fatal(err)
	}
	if err := WriteShardContext(context.Background(), &sb, shards[0]); err != nil {
		t.Fatal(err)
	}
	return mb.Bytes(), sb.Bytes()
}

func goodDeltaBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteDeltaContext(context.Background(), &buf, moveDelta(1)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// format is one of the package's file decoders, reduced to what the
// corruption tests check: decode returns the result's Validate, or nil when
// it returned no result.
type format struct {
	name   string
	v1     string // the format's previous magic, which must be refused
	good   func(testing.TB) []byte
	decode func([]byte) (validate func() error, err error)
}

var formats = []format{
	{"release", "SOCRECv1", goodReleaseBytes, func(data []byte) (func() error, error) {
		r, err := ReadContext(context.Background(), bytes.NewReader(data))
		if r == nil {
			return nil, err
		}
		return r.Validate, err
	}},
	{"manifest", "SOCMANv1", func(t testing.TB) []byte { m, _ := goodManifestAndShard(t); return m }, func(data []byte) (func() error, error) {
		m, err := ReadManifest(bytes.NewReader(data))
		if m == nil {
			return nil, err
		}
		return m.Validate, err
	}},
	{"shard", "SOCSHDv1", func(t testing.TB) []byte { _, s := goodManifestAndShard(t); return s }, func(data []byte) (func() error, error) {
		s, err := ReadShardContext(context.Background(), bytes.NewReader(data))
		if s == nil {
			return nil, err
		}
		return s.Validate, err
	}},
	{"delta", "SOCDLT01", goodDeltaBytes, func(data []byte) (func() error, error) {
		d, err := ReadDeltaContext(context.Background(), bytes.NewReader(data))
		if d == nil {
			return nil, err
		}
		return d.Validate, err
	}},
}

// corruptCorpus generates the systematic corruption corpus over a valid
// image: every truncation length, every single-byte bit flip, and magic
// manglings, including the format's previous version. Shared by the
// deterministic corpus test and the fuzz seeds.
func corruptCorpus(good []byte, v1 string) [][]byte {
	var corpus [][]byte
	// Every truncation, including the empty file and the full prefix
	// missing only the checksum's last byte.
	for n := 0; n < len(good); n++ {
		corpus = append(corpus, bytes.Clone(good[:n]))
	}
	// Every single-bit-class flip: one XOR per byte position covers header
	// fields, dimensions, assignments, averages and the checksum itself.
	for i := 0; i < len(good); i++ {
		flipped := bytes.Clone(good)
		flipped[i] ^= 0x20
		corpus = append(corpus, flipped)
	}
	// Magic manglings: previous version, case change, swapped prefix,
	// zeroed.
	live := string(good[:len(v1)])
	for _, m := range []string{v1, strings.ToLower(live), live[3:6] + live[:3] + live[6:], strings.Repeat("\x00", len(v1))} {
		mangled := bytes.Clone(good)
		copy(mangled, m)
		corpus = append(corpus, mangled)
	}
	return corpus
}

// TestReadCorruptCorpus asserts that every decoder, presented with every
// truncated, bit-flipped and magic-mangled variant of a valid image,
// returns an error — never panics and never returns a partial result. (A
// flipped byte that survives CRC32 is astronomically unlikely at this
// size; any variant a decoder does accept must still validate.)
func TestReadCorruptCorpus(t *testing.T) {
	for _, f := range formats {
		for i, data := range corruptCorpus(f.good(t), f.v1) {
			validate, err := f.decode(data)
			if err == nil {
				// Not reachable for this corpus in practice; the invariant
				// if it ever is: success must mean a fully valid result.
				if validate == nil {
					t.Fatalf("%s corpus[%d]: nil result and nil error", f.name, i)
				}
				if verr := validate(); verr != nil {
					t.Fatalf("%s corpus[%d]: accepted an invalid result: %v", f.name, i, verr)
				}
				continue
			}
			if validate != nil {
				t.Fatalf("%s corpus[%d]: partial result alongside error %v", f.name, i, err)
			}
		}
	}
}

// TestReadCorruptCorpusMatchesGood sanity-checks the corpus builder: the
// untouched images still parse.
func TestReadCorruptCorpusMatchesGood(t *testing.T) {
	for _, f := range formats {
		if _, err := f.decode(f.good(t)); err != nil {
			t.Fatalf("%s: pristine image rejected: %v", f.name, err)
		}
	}
	rel, err := ReadContext(context.Background(), bytes.NewReader(goodReleaseBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Measure != "AA" || rel.NumItems != 3 || rel.Clusters.NumClusters() != 3 {
		t.Errorf("round trip lost fields: %+v", rel)
	}
}

// TestDecodersBoundedAllocation: a header claiming maximum dimensions,
// followed by no body, must cost each decoder well under 1 MiB before it
// fails. Decoders run before the trailing CRC is checked, so a flipped
// length field must not be able to demand gigabytes.
func TestDecodersBoundedAllocation(t *testing.T) {
	const maxCount = math.MaxUint32
	one := math.Float64bits(1)
	headers := map[string]struct {
		data   []byte
		decode func([]byte) (func() error, error)
	}{
		// epsilon, measure, items, clusters, then the assignment's count.
		"release": {header(magic, one, "CN", uint32(maxDim), uint32(maxDim), uint32(maxCount)), formats[0].decode},
		// version, shards, epsilon, measure, items, horizon, then the
		// cluster map's count.
		"manifest": {header(manifestMagic, uint64(1), uint32(maxDim), one, "CN", uint32(maxDim), uint32(2), uint32(maxCount)), formats[1].decode},
		// version, id, shards, then the cluster map's count.
		"shard": {header(shardMagic, uint64(1), uint32(0), uint32(maxDim), uint32(maxCount)), formats[2].decode},
		// base, epsilon, measure, items, then the assignment's count.
		"delta": {header(deltaMagic, uint64(1), one, "CN", uint32(maxDim), uint32(maxCount)), formats[3].decode},
	}
	for name, h := range headers {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := h.decode(h.data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: header without body accepted", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: decoding a bare header allocated %d bytes", name, alloc)
		}
	}
}

// header encodes magic then each field: u32, u64 (float bits included),
// or a count-prefixed string.
func header(magic string, fields ...any) []byte {
	b := []byte(magic)
	for _, f := range fields {
		switch v := f.(type) {
		case uint32:
			b = binary.LittleEndian.AppendUint32(b, v)
		case uint64:
			b = binary.LittleEndian.AppendUint64(b, v)
		case string:
			b = append(binary.LittleEndian.AppendUint32(b, uint32(len(v))), v...)
		}
	}
	return b
}
