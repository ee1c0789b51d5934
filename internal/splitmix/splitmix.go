// Package splitmix is the repository's one SplitMix64 (Steele, Lea &
// Flood, 2014): a Weyl-sequence step and a 64-bit finalizer. It drives
// every deterministic stream that must never touch math/rand, which the
// repository confines to internal/dp: fault schedules, trace and span ids,
// consistent-hash ring placement, retry jitter, and the load and mutation
// generators. None of these streams is secret; privacy noise flows through
// dp.NoiseSource, which sociolint enforces.
package splitmix

// Gamma is the Weyl increment each step adds to the state: the golden
// ratio in 64-bit fixed point.
const Gamma uint64 = 0x9e3779b97f4a7c15

// Mix is the SplitMix64 finalizer, a bijection whose avalanche spreads
// inputs that differ in a few low bits over the whole 64-bit range.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Next advances *state by Gamma and returns the new state, finalized.
func Next(state *uint64) uint64 {
	*state += Gamma
	return Mix(*state)
}

// Float64 returns a uniform value in [0, 1) from the top 53 bits of Next.
func Float64(state *uint64) float64 {
	return float64(Next(state)>>11) / (1 << 53)
}
