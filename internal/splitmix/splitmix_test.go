package splitmix

import "testing"

// TestNextMatchesReference pins the stream to the published SplitMix64
// outputs (Vigna's splitmix64.c, seeded 1234567) and to seed 0. Every
// stream in the repository derives from it: a change here moves fault
// schedules, ring placement and with it the manifests recserve -shards
// writes.
func TestNextMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want []uint64
	}{
		{0, []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec, 0x1b39896a51a8749b}},
		{1234567, []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431, 16408922859458223821}},
	} {
		s := tc.seed
		for i, want := range tc.want {
			if got := Next(&s); got != want {
				t.Fatalf("seed %d, output %d = %#016x, want %#016x", tc.seed, i, got, want)
			}
		}
		if s != tc.seed+uint64(len(tc.want))*Gamma {
			t.Errorf("seed %d: state %#x after %d steps is not seed + %d·Gamma", tc.seed, s, len(tc.want), len(tc.want))
		}
	}
}

func TestFloat64(t *testing.T) {
	s := uint64(1234567)
	Next(&s)
	if got := Float64(&s); got != 0.17364409667091263 {
		t.Errorf("Float64 = %v, want the top 53 bits of 3203168211198807973 over 2^53", got)
	}
}
