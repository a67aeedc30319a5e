// Package splitmix holds the SplitMix64 mixer (Steele, Lea & Flood 2014)
// that the counter-based random streams of the ABM and the configuration
// model draw from.
package splitmix

// Mix is the SplitMix64 output function applied to x advanced by one
// golden-gamma step: a bijective avalanche function whose sequential
// stream, Mix(s), Mix(s+γ), Mix(s+2γ), …, passes BigCrush.
func Mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
