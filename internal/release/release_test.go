package release

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"socialrec/internal/community"
)

func sample(t *testing.T) *Release {
	t.Helper()
	cl, err := community.FromAssignment([]int32{0, 0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	avg := make([]float64, 3*4)
	for i := range avg {
		avg[i] = float64(i) * 0.25
	}
	return &Release{
		Epsilon:  0.5,
		Measure:  "CN",
		Clusters: cl,
		NumItems: 4,
		Avg:      avg,
	}
}

func TestRoundTrip(t *testing.T) {
	r := sample(t)
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadContext(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epsilon != r.Epsilon || got.Measure != r.Measure || got.NumItems != r.NumItems {
		t.Errorf("metadata changed: %+v", got)
	}
	if got.Clusters.NumClusters() != 3 || got.Clusters.NumUsers() != 5 {
		t.Errorf("clustering changed: %d clusters, %d users", got.Clusters.NumClusters(), got.Clusters.NumUsers())
	}
	for u := 0; u < 5; u++ {
		if got.Clusters.Cluster(u) != r.Clusters.Cluster(u) {
			t.Fatal("assignment changed")
		}
	}
	for i := range r.Avg {
		if got.Avg[i] != r.Avg[i] {
			t.Fatal("averages changed")
		}
	}
}

func TestRoundTripInfiniteEpsilon(t *testing.T) {
	r := sample(t)
	r.Epsilon = math.Inf(1)
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadContext(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Epsilon, 1) {
		t.Errorf("epsilon = %v, want +Inf", got.Epsilon)
	}
}

func TestWriteValidates(t *testing.T) {
	r := sample(t)
	r.Avg = r.Avg[:3] // wrong length
	if err := Write(&bytes.Buffer{}, r); err == nil {
		t.Error("inconsistent release should fail to write")
	}
	r = sample(t)
	r.Epsilon = -1
	if err := Write(&bytes.Buffer{}, r); err == nil {
		t.Error("bad epsilon should fail to write")
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := ReadContext(context.Background(), strings.NewReader("NOTMAGIC-and-more-bytes")); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := ReadContext(context.Background(), strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
}

func TestReadDetectsCorruption(t *testing.T) {
	r := sample(t)
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte in the averages region.
	data[len(data)-20] ^= 0xFF
	if _, err := ReadContext(context.Background(), bytes.NewReader(data)); err == nil {
		t.Error("corrupted payload should fail the checksum")
	}
}

func TestReadDetectsTruncation(t *testing.T) {
	r := sample(t)
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{len(magic), len(magic) + 4, len(data) / 2, len(data) - 2} {
		if _, err := ReadContext(context.Background(), bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d bytes should fail", cut)
		}
	}
}

func TestReadRejectsBadAssignment(t *testing.T) {
	r := sample(t)
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The first assignment word sits after magic(8) + epsilon(8) +
	// measure count(4) + "CN"(2) + items(4) + clusters(4) + assignment
	// count(4) = 34. Point user 0 at cluster 99 and fix nothing else: Read
	// must reject it before the checksum even matters.
	data[34] = 99
	if _, err := ReadContext(context.Background(), bytes.NewReader(data)); err == nil {
		t.Error("out-of-range cluster assignment should fail")
	}
}
