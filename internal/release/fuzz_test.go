package release

import (
	"bytes"
	"context"
	"testing"

	"socialrec/internal/community"
)

// FuzzRead asserts the binary release parser never panics or over-allocates
// on malformed input; it must either return a valid Release or an error.
func FuzzRead(f *testing.F) {
	// Seed with a genuine release plus mutations.
	cl, _ := community.FromAssignment([]int32{0, 0, 1})
	var good bytes.Buffer
	_ = Write(&good, &Release{
		Epsilon:  1,
		Measure:  "CN",
		Clusters: cl,
		NumItems: 2,
		Avg:      []float64{1, 2, 3, 4},
	})
	f.Add(good.Bytes())
	f.Add([]byte(magic))
	f.Add([]byte("SOCRECv3 future version"))
	f.Add([]byte{})
	truncated := good.Bytes()[:len(good.Bytes())/2]
	f.Add(truncated)
	// The systematic corruption corpus (every truncation, every byte
	// flipped, mangled magic) seeds the mutator with inputs that reach
	// deep into the parser: valid headers with poisoned bodies, checksums
	// over torn payloads, dimension fields a bit off.
	for _, data := range corruptCorpus(goodReleaseBytes(f), formats[0].v1) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadContext(context.Background(), bytes.NewReader(data))
		if err != nil {
			if r != nil {
				t.Fatalf("Read returned a partial release alongside error %v", err)
			}
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("Read returned an invalid release: %v", err)
		}
	})
}

// FuzzReadArtifacts feeds one input to every decoder in the package —
// release, manifest, shard and delta. None may panic, and each must return
// either an error and no result, or a result that validates.
func FuzzReadArtifacts(f *testing.F) {
	for _, ft := range formats {
		good := ft.good(f)
		f.Add(good)
		for _, data := range corruptCorpus(good, ft.v1) {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ft := range formats {
			validate, err := ft.decode(data)
			switch {
			case err != nil && validate != nil:
				t.Fatalf("%s: partial result alongside error %v", ft.name, err)
			case err == nil && validate == nil:
				t.Fatalf("%s: nil result and nil error", ft.name)
			case err == nil:
				if verr := validate(); verr != nil {
					t.Fatalf("%s: accepted an invalid result: %v", ft.name, verr)
				}
			}
		}
	})
}
