// Package mix holds the deterministic hash mixing behind every seeded
// draw of the repository: the testbed, network and storage fault plans
// (faults, netchaos, faultfs), the generator's flow order (pktgen) and
// the dispatch worker's retry jitter. Every draw is a pure function of
// its keys, so a run replays bit for bit.
package mix

// Golden is the SplitMix64 increment, 2⁶⁴/φ: one step of its stream.
const Golden = 0x9e3779b97f4a7c15

// SplitMix64 is the SplitMix64 generator's output for state x: x advanced
// by Golden, then avalanche-mixed. As a plain function it is a strong
// 64-bit mixer.
func SplitMix64(x uint64) uint64 {
	x += Golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Keys folds the keys into one 64-bit hash, order-sensitively.
func Keys(keys ...uint64) uint64 {
	h := uint64(0x8f1bbcdcbfa53e0b)
	for _, k := range keys {
		h = SplitMix64(h ^ k)
	}
	return h
}

// String folds a name into a key (64-bit FNV-1a).
func String(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Unit maps a hash to [0, 1).
func Unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }
