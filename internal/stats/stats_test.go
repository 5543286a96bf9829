package stats

import "testing"

func TestMedianAndMAD(t *testing.T) {
	if Median(nil) != 0 || MAD(nil) != 0 {
		t.Fatal("empty median/MAD")
	}
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	// {1,2,3,4,100}: median 3, abs devs {2,1,0,1,97}, MAD 1.
	if m := MAD([]float64{1, 2, 3, 4, 100}); m != 1 {
		t.Fatalf("MAD = %v", m)
	}
	// Median must not reorder its input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 {
		t.Fatal("Median mutated input")
	}
}

func TestMADOutliers(t *testing.T) {
	// The thesis-style case: several agreeing repetitions, one wild one.
	flags := MADOutliers([]float64{99.1, 99.3, 99.2, 99.2, 42.0}, 3.5, 0.5)
	want := []bool{false, false, false, false, true}
	for i := range want {
		if flags[i] != want[i] {
			t.Fatalf("flags = %v", flags)
		}
	}
	// Identical repetitions (MAD = 0): the floor keeps tiny jitter in.
	flags = MADOutliers([]float64{99.2, 99.2, 99.2, 99.21}, 3.5, 0.5)
	for i, f := range flags {
		if f {
			t.Fatalf("rep %d rejected despite floor", i)
		}
	}
	// Fewer than three values: nothing to reject against.
	flags = MADOutliers([]float64{1, 1000}, 3.5, 0)
	if flags[0] || flags[1] {
		t.Fatal("pair rejected")
	}
}
