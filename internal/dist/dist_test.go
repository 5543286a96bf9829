package dist

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d times", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnUniformity(t *testing.T) {
	r := NewRNG(7)
	const n, draws = 10, 100000
	var hist [n]int
	for i := 0; i < draws; i++ {
		hist[r.Intn(n)]++
	}
	for i, h := range hist {
		got := float64(h) / draws
		if math.Abs(got-0.1) > 0.01 {
			t.Fatalf("bucket %d frequency %.4f, want ~0.1", i, got)
		}
	}
}

func TestCountsBasics(t *testing.T) {
	var c Counts
	c.Add(40, 100)
	c.Add(1500, 100)
	c.Add(40, 50)
	if c.Total() != 250 {
		t.Fatalf("total = %d", c.Total())
	}
	if c.Get(40) != 150 {
		t.Fatalf("count(40) = %d", c.Get(40))
	}
	wantMean := (40.0*150 + 1500*100) / 250
	if math.Abs(c.Mean()-wantMean) > 1e-9 {
		t.Fatalf("mean = %f, want %f", c.Mean(), wantMean)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	sizes := c.Sizes()
	if len(sizes) != 2 || sizes[0] != 40 || sizes[1] != 1500 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestTopShares(t *testing.T) {
	var c Counts
	c.Add(40, 500)
	c.Add(1500, 300)
	c.Add(576, 150)
	c.Add(100, 50)
	top, rest := c.TopShares(2)
	if len(top) != 2 || top[0].Size != 40 || top[1].Size != 1500 {
		t.Fatalf("top = %+v", top)
	}
	if math.Abs(top[0].Fraction-0.5) > 1e-9 || math.Abs(top[1].Cumulative-0.8) > 1e-9 {
		t.Fatalf("fractions wrong: %+v", top)
	}
	if math.Abs(rest-0.2) > 1e-9 {
		t.Fatalf("rest = %f", rest)
	}
}

func TestLargestRemainderExactTotal(t *testing.T) {
	f := func(raw []uint8, totalRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		any := false
		for i, r := range raw {
			weights[i] = float64(r)
			if r > 0 {
				any = true
			}
		}
		total := int(totalRaw)
		cells := largestRemainder(weights, total)
		sum := 0
		for _, c := range cells {
			if c < 0 {
				return false
			}
			sum += c
		}
		if !any || total == 0 {
			return sum == 0
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// mwnLike builds a small distribution shaped like the thesis trace.
func mwnLike() *Counts {
	var c Counts
	c.Add(40, 300000)
	c.Add(52, 150000)
	c.Add(1500, 120000)
	c.Add(576, 40000)
	c.Add(552, 30000)
	c.Add(1420, 20000)
	// Low-mass background spread over many sizes (below the 2‰ bound).
	for s := 60; s < 1500; s += 7 {
		c.Add(s, 300)
	}
	return &c
}

func TestBuildIdentifiesOutliers(t *testing.T) {
	c := mwnLike()
	d, err := Build(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{40: true, 52: true, 1500: true, 576: true, 552: true, 1420: true}
	got := map[int]bool{}
	for _, e := range d.Outliers {
		got[e.Size] = true
	}
	for s := range want {
		if !got[s] {
			t.Errorf("size %d (above bound) not an outlier", s)
		}
	}
	// Background sizes at 300/~663k ≈ 0.45‰ < 2‰ must not be outliers.
	if got[60] || got[67] {
		t.Error("background size misclassified as outlier")
	}
	// Array invariants: outlier cells sum ≤ ρ, bin cells sum = ρ.
	sumO, sumB := 0, 0
	for _, e := range d.Outliers {
		sumO += e.Cells
	}
	for _, e := range d.Bins {
		sumB += e.Cells
	}
	if sumO > d.Params.Precision {
		t.Fatalf("outlier cells %d exceed precision", sumO)
	}
	if sumB != d.Params.Precision {
		t.Fatalf("bin cells = %d, want %d", sumB, d.Params.Precision)
	}
}

func TestSampleMatchesInput(t *testing.T) {
	c := mwnLike()
	d, err := Build(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(1)
	const draws = 200000
	var got Counts
	for i := 0; i < draws; i++ {
		s := d.Sample(rng)
		if s < 0 || s > 1500 {
			t.Fatalf("sample %d out of range", s)
		}
		got.Add(s, 1)
	}
	// Outlier sizes must reproduce their input fractions within the array
	// quantization (1/ρ) plus sampling noise.
	for _, size := range []int{40, 52, 1500} {
		want := c.Fraction(size)
		have := got.Fraction(size)
		if math.Abs(want-have) > 0.01 {
			t.Errorf("size %d: input %.4f, sampled %.4f", size, want, have)
		}
	}
	// The mean must agree with the analytic mean of the representation.
	if math.Abs(got.Mean()-d.Mean()) > 10 {
		t.Errorf("sampled mean %.1f vs analytic %.1f", got.Mean(), d.Mean())
	}
}

func TestSampleDeterminism(t *testing.T) {
	c := mwnLike()
	d, _ := Build(c, DefaultParams())
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 10000; i++ {
		if d.Sample(a) != d.Sample(b) {
			t.Fatal("sampling diverged for equal seeds")
		}
	}
}

func TestProcfsRoundTrip(t *testing.T) {
	c := mwnLike()
	d, _ := Build(c, DefaultParams())
	var buf bytes.Buffer
	if err := WriteProcfs(&buf, d, false); err != nil {
		t.Fatal(err)
	}
	d2, err := ParseProcfs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Outliers) != len(d.Outliers) || len(d2.Bins) != len(d.Bins) {
		t.Fatalf("entry counts differ: %d/%d vs %d/%d",
			len(d2.Outliers), len(d2.Bins), len(d.Outliers), len(d.Bins))
	}
	for i := range d.Outliers {
		if d.Outliers[i] != d2.Outliers[i] {
			t.Fatalf("outlier %d differs", i)
		}
	}
	// Identical sampling behaviour.
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 10000; i++ {
		if d.Sample(a) != d2.Sample(b) {
			t.Fatal("round-tripped distribution samples differently")
		}
	}
}

func TestProcfsPgsetWrapping(t *testing.T) {
	c := mwnLike()
	d, _ := Build(c, DefaultParams())
	var buf bytes.Buffer
	if err := WriteProcfs(&buf, d, true); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), `pgset "dist `) {
		t.Fatalf("pgset wrapping missing: %q", buf.String()[:40])
	}
	if _, err := ParseProcfs(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestParseProcfsErrors(t *testing.T) {
	cases := map[string]string{
		"missing dist":   "outl 40 10\n",
		"short dist":     "dist 1000 20\n",
		"count mismatch": "dist 1000 20 1500 2 0\noutl 40 10\n",
		"bad directive":  "dist 1000 20 1500 0 0\nfoo 1 2\n",
		"cells overflow": "dist 100 20 1500 1 0\noutl 40 500\n",
		"size range":     "dist 1000 20 1500 1 0\noutl 2000 10\n",
		"bin alignment":  "dist 1000 20 1500 0 1\nhist 13 10\n",
		"precision":      "dist 65537 20 1500 0 0\n",
		"max size":       "dist 1000 20 65536 1 0\noutl 65536 10\n",
		"bin width":      "dist 1000 65536 1500 0 0\n",
		"cells wrap":     "dist 1000 20 1500 2 0\noutl 40 1\noutl 41 9223372036854775807\n",
	}
	for name, text := range cases {
		if _, err := ParseProcfs(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
}

// TestParamBounds: the largest accepted parameters build, one past them
// is refused before the arrays are allocated.
func TestParamBounds(t *testing.T) {
	ok := Params{Precision: MaxPrecision, BinSize: MaxPacketSize, MaxSize: MaxPacketSize}
	if _, err := FromEntries(ok, []Entry{{Size: MaxPacketSize, Cells: 1}}, nil); err != nil {
		t.Fatalf("bounds refused: %v", err)
	}
	if _, err := Build(mwnLike(), ok); err != nil {
		t.Fatalf("Build at the bounds: %v", err)
	}
	for _, p := range []Params{
		{Precision: MaxPrecision + 1},
		{MaxSize: MaxPacketSize + 1},
		{BinSize: MaxPacketSize + 1},
		{BinSize: math.MaxInt},
	} {
		if _, err := FromEntries(p, nil, nil); err == nil {
			t.Errorf("FromEntries accepted %+v", p)
		}
		if _, err := Build(mwnLike(), p); err == nil {
			t.Errorf("Build accepted %+v", p)
		}
	}
}

// FuzzParseProcfs: no input panics or allocates beyond what its length
// and the parameter bounds allow, and an accepted distribution re-parses
// equal after WriteProcfs, with and without pgset wrapping.
func FuzzParseProcfs(f *testing.F) {
	d, err := Build(mwnLike(), DefaultParams())
	if err != nil {
		f.Fatal(err)
	}
	for _, pgset := range []bool{false, true} {
		var buf bytes.Buffer
		if err := WriteProcfs(&buf, d, pgset); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	for _, s := range []string{
		"# comment\n\ndist 0 0 0 1 1\noutl 1500 400\nhist 40 1000\n",
		"dist 10 5 100 1 1\noutl 100 10\nhist 95 3\n",
		"dist 1000 20 1500 2 0\noutl 40 10\n",
		"dist 1000 20 1500 1 0\noutl 2000 10\n",
		"dist 65536 65535 65535 1 0\noutl 65535 65536\n",
		"dist 1000000000 20 1500 0 0\n",
		"dist 1000 20 1000000000 1 0\noutl 999999999 1\n",
		"dist 1000 20 1500 2 0\noutl 40 1\noutl 41 9223372036854775807\n",
		`pgset "dist -1 -1 -1 0 0"` + "\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := ParseProcfs(strings.NewReader(text))
		runtime.ReadMemStats(&after)
		// The scanner's buffer, a few allocations per line and the two
		// sampling arrays.
		if limit := 64<<10 + 64*uint64(len(text)) + 8*MaxPrecision; after.TotalAlloc-before.TotalAlloc > limit {
			t.Fatalf("parsing %d bytes allocated %d bytes, more than %d", len(text), after.TotalAlloc-before.TotalAlloc, limit)
		}
		if err != nil {
			return
		}
		for _, pgset := range []bool{false, true} {
			var buf bytes.Buffer
			if err := WriteProcfs(&buf, d, pgset); err != nil {
				t.Fatal(err)
			}
			d2, err := ParseProcfs(&buf)
			if err != nil {
				t.Fatalf("pgset=%v: written distribution refused: %v\n%s", pgset, err, buf.String())
			}
			if !reflect.DeepEqual(d, d2) {
				t.Fatalf("pgset=%v: re-parsed distribution differs\nfirst:  %+v\nsecond: %+v", pgset, d, d2)
			}
		}
	})
}

func TestReadWriteSizesAndDist(t *testing.T) {
	var c Counts
	if err := ReadSizes(strings.NewReader("40 40 1500\n576\n40\n"), &c); err != nil {
		t.Fatal(err)
	}
	if c.Total() != 5 || c.Get(40) != 3 {
		t.Fatalf("counts = %+v", c)
	}
	var buf bytes.Buffer
	if err := WriteDist(&buf, ' ', &c); err != nil {
		t.Fatal(err)
	}
	var c2 Counts
	if err := ReadDist(&buf, ' ', &c2); err != nil {
		t.Fatal(err)
	}
	if c2.Total() != 5 || c2.Get(1500) != 1 || c2.Get(576) != 1 {
		t.Fatalf("round trip = %+v", c2)
	}
	// Custom separator.
	var c3 Counts
	if err := ReadDist(strings.NewReader("40:7\n100:3\n"), ':', &c3); err != nil {
		t.Fatal(err)
	}
	if c3.Total() != 10 {
		t.Fatalf("custom sep total = %d", c3.Total())
	}
}

func TestWriteSizesGenerates(t *testing.T) {
	c := mwnLike()
	d, _ := Build(c, DefaultParams())
	var buf bytes.Buffer
	if err := WriteSizes(&buf, d, NewRNG(3), 1000); err != nil {
		t.Fatal(err)
	}
	var back Counts
	if err := ReadSizes(&buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Total() != 1000 {
		t.Fatalf("generated %d sizes", back.Total())
	}
}

// Property: Build never produces arrays that sample out of range, for any
// random input distribution.
func TestBuildSampleRangeProperty(t *testing.T) {
	f := func(seed uint64, sizes []uint16, weights []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		var c Counts
		for i, s := range sizes {
			w := uint64(1)
			if i < len(weights) {
				w = uint64(weights[i]) + 1
			}
			c.Add(int(s)%1501, w)
		}
		d, err := Build(&c, DefaultParams())
		if err != nil {
			return false
		}
		rng := NewRNG(seed)
		for i := 0; i < 200; i++ {
			s := d.Sample(rng)
			if s < 0 || s > 1500 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildEmptyInput(t *testing.T) {
	var c Counts
	if _, err := Build(&c, DefaultParams()); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestPureOutlierDistribution(t *testing.T) {
	var c Counts
	c.Add(40, 100)
	d, err := Build(&c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if s := d.Sample(rng); s != 40 {
			t.Fatalf("pure-outlier distribution sampled %d", s)
		}
	}
	if d.OutlierMass() != 1.0 {
		t.Fatalf("outlier mass = %f", d.OutlierMass())
	}
}

func TestCompareIdentical(t *testing.T) {
	c := mwnLike()
	cmp := Compare(c, c)
	if cmp.TotalVariation != 0 || cmp.MaxAbsDiff != 0 || cmp.MeanDiff != 0 {
		t.Fatalf("self-comparison = %+v", cmp)
	}
	if cmp.ChiSquare > 1e-9 {
		t.Fatalf("chi-square = %v", cmp.ChiSquare)
	}
}

func TestCompareDisjoint(t *testing.T) {
	var a, b Counts
	a.Add(40, 100)
	b.Add(1500, 100)
	cmp := Compare(&a, &b)
	if math.Abs(cmp.TotalVariation-1.0) > 1e-9 {
		t.Fatalf("disjoint TV = %v, want 1", cmp.TotalVariation)
	}
	if cmp.MeanDiff != 1460 {
		t.Fatalf("mean diff = %v", cmp.MeanDiff)
	}
}

func TestCompareSampledDistributionIsClose(t *testing.T) {
	input := mwnLike()
	d, err := Build(input, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(11)
	var got Counts
	for i := 0; i < 200000; i++ {
		got.Add(d.Sample(rng), 1)
	}
	cmp := Compare(input, &got)
	// The second stage smears non-outlier mass uniformly within its 20-byte
	// bins; mwnLike's sparse background (every 7th size) therefore moves
	// ≈ background_mass × 17/20 ≈ 7.5 % of total mass by construction.
	if cmp.TotalVariation > 0.10 {
		t.Fatalf("TV = %.4f, want small", cmp.TotalVariation)
	}
	if cmp.MeanDiff > 15 {
		t.Fatalf("mean diff = %.2f bytes", cmp.MeanDiff)
	}
}

func TestCompareEmpty(t *testing.T) {
	var empty Counts
	full := mwnLike()
	if got := Compare(&empty, full); got != (Comparison{}) {
		t.Fatalf("empty reference = %+v", got)
	}
	if got := Compare(full, &empty); got != (Comparison{}) {
		t.Fatalf("empty observation = %+v", got)
	}
}
