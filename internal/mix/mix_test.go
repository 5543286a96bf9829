package mix

import "testing"

// TestReferenceValues pins the mixers to published reference outputs, so
// every seeded draw built on them stays bit-identical.
func TestReferenceValues(t *testing.T) {
	// The first outputs of a SplitMix64 stream seeded with 0 (Vigna's
	// reference implementation).
	state := uint64(0)
	for _, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := SplitMix64(state); got != want {
			t.Fatalf("SplitMix64(%#x) = %#x, want %#x", state, got, want)
		}
		state += Golden
	}
	// FNV-1a test vectors.
	if got := String(""); got != 0xcbf29ce484222325 {
		t.Fatalf("String(\"\") = %#x", got)
	}
	if got := String("a"); got != 0xaf63dc4c8601ec8c {
		t.Fatalf("String(\"a\") = %#x", got)
	}
	if Keys(1, 2) == Keys(2, 1) {
		t.Fatal("Keys is not order-sensitive")
	}
	if u := Unit(^uint64(0)); u >= 1 || Unit(0) != 0 {
		t.Fatalf("Unit out of [0, 1): %v", u)
	}
}
