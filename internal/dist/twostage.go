package dist

import (
	"errors"
	"fmt"
	"sort"
)

// Params are the customizable parameters of the two-stage representation
// (§4.2.2) with the thesis's defaults.
type Params struct {
	// Precision ρ: length of the two sampling arrays. Larger arrays resolve
	// smaller probabilities. Default 1000, at most MaxPrecision.
	Precision int
	// BinSize σ_bin: how many consecutive packet sizes one second-stage bin
	// merges. Default 20, at most MaxPacketSize.
	BinSize int
	// MaxSize N_ps: the largest packet size considered. Default 1500
	// (no jumbo frames in the MWN trace), at most MaxPacketSize.
	MaxSize int
	// OutlierBound p_Ωbound: minimum fraction for a size to become a
	// first-stage outlier. Default 0.002 (2 per mille).
	OutlierBound float64
}

// Bounds on Params. A procfs dist line or a createDist flag sets them,
// and the sampling arrays and generated frames are sized by them, so they
// are checked before anything is allocated.
const (
	// MaxPrecision bounds ρ: each of the two sampling arrays holds ρ
	// 4-byte cells, so a distribution takes at most 512 KiB. It resolves
	// probabilities 65 times finer than the default ρ of 1000.
	MaxPrecision = 1 << 16
	// MaxPacketSize bounds N_ps and σ_bin: the IPv4 total-length field is
	// 16 bits, so no IP datagram is longer.
	MaxPacketSize = 65535
)

// DefaultParams returns the thesis defaults (ρ=1000, σ=20, N=1500, 2‰).
func DefaultParams() Params {
	return Params{Precision: 1000, BinSize: 20, MaxSize: 1500, OutlierBound: 0.002}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.Precision <= 0 {
		p.Precision = d.Precision
	}
	if p.BinSize <= 0 {
		p.BinSize = d.BinSize
	}
	if p.MaxSize <= 0 {
		p.MaxSize = d.MaxSize
	}
	if p.OutlierBound <= 0 {
		p.OutlierBound = d.OutlierBound
	}
	return p
}

// check rejects parameters beyond MaxPrecision and MaxPacketSize.
func (p Params) check() error {
	if p.Precision > MaxPrecision {
		return fmt.Errorf("dist: precision %d above the maximum %d", p.Precision, MaxPrecision)
	}
	if p.MaxSize > MaxPacketSize {
		return fmt.Errorf("dist: maximum packet size %d above the IPv4 limit %d", p.MaxSize, MaxPacketSize)
	}
	if p.BinSize > MaxPacketSize {
		return fmt.Errorf("dist: bin width %d above the IPv4 limit %d", p.BinSize, MaxPacketSize)
	}
	return nil
}

// NumBins returns n_bin = ceil(N_ps / σ_bin).
func (p Params) NumBins() int {
	return (p.MaxSize + p.BinSize - 1) / p.BinSize
}

// Entry is one input line of the procfs format: fill Cells cells of the
// sampling array with Size.
type Entry struct {
	Size  int // packet size (outliers) or bin start size (bins)
	Cells int // number of array cells
}

// Distribution is the complete two-stage representation: the procfs-level
// entries plus the expanded sampling arrays used at generation time.
type Distribution struct {
	Params   Params
	Outliers []Entry // first stage: exact sizes
	Bins     []Entry // second stage: bin start sizes

	// Expanded sampling arrays (§4.2.2 / A.2.1). outlierArr cells hold a
	// packet size or -1 ("consult the bins array"); binArr cells hold a bin
	// start size to which jitter in [0, σ_bin) is added.
	outlierArr []int32
	binArr     []int32
}

// Build computes the two-stage representation of counts (the createDist
// calculation, §4.2.3): fractions (4.1), the outlier set Ω (4.2), the bins
// (4.3–4.5), and cell allocations proportional to the probabilities.
// Cell allocation uses the largest-remainder method so each array is filled
// exactly: rounding each share independently (as a first implementation
// might) can over- or undershoot ρ.
func Build(counts *Counts, params Params) (*Distribution, error) {
	params = params.withDefaults()
	if err := params.check(); err != nil {
		return nil, err
	}
	if counts.Total() == 0 {
		return nil, errors.New("dist: empty input distribution")
	}
	d := &Distribution{Params: params}

	// Stage 1: the outlier set Ω = {i | p_i ≥ p_Ωbound}.
	var outlierSizes []int
	outlierFrac := 0.0
	for _, s := range counts.Sizes() {
		if s > params.MaxSize {
			continue // beyond N_ps: ignored, like the thesis ignores jumbos
		}
		if f := counts.Fraction(s); f >= params.OutlierBound {
			outlierSizes = append(outlierSizes, s)
			outlierFrac += f
		}
	}

	// Stage 2: bins over the non-outlier mass (4.3–4.5).
	nbin := params.NumBins()
	binMass := make([]uint64, nbin)
	var restTotal uint64
	isOutlier := make(map[int]bool, len(outlierSizes))
	for _, s := range outlierSizes {
		isOutlier[s] = true
	}
	for _, s := range counts.Sizes() {
		if s > params.MaxSize || isOutlier[s] {
			continue
		}
		j := s / params.BinSize
		if j >= nbin {
			j = nbin - 1
		}
		binMass[j] += counts.Get(s)
		restTotal += counts.Get(s)
	}

	// Outlier cells: allocate round(p_i·ρ) in aggregate via largest
	// remainder, targeting outlierFrac·ρ cells in total so that the
	// remaining (-1) cells exactly cover the bin mass.
	outlierTarget := int(outlierFrac*float64(params.Precision) + 0.5)
	if outlierTarget > params.Precision {
		outlierTarget = params.Precision
	}
	weights := make([]float64, len(outlierSizes))
	for i, s := range outlierSizes {
		weights[i] = counts.Fraction(s)
	}
	cells := largestRemainder(weights, outlierTarget)
	for i, s := range outlierSizes {
		if cells[i] > 0 {
			d.Outliers = append(d.Outliers, Entry{Size: s, Cells: cells[i]})
		}
	}

	// Bin cells: the whole bins array (ρ cells) is distributed over the
	// non-outlier mass.
	if restTotal > 0 {
		w := make([]float64, nbin)
		for j, m := range binMass {
			w[j] = float64(m) / float64(restTotal)
		}
		bcells := largestRemainder(w, params.Precision)
		for j, n := range bcells {
			if n > 0 {
				d.Bins = append(d.Bins, Entry{Size: j * params.BinSize, Cells: n})
			}
		}
	}
	if err := d.expand(); err != nil {
		return nil, err
	}
	return d, nil
}

// largestRemainder apportions total cells over weights (Hamilton's method):
// exact totals, deterministic, and as close to proportional as integers
// allow.
func largestRemainder(weights []float64, total int) []int {
	type frac struct {
		idx int
		rem float64
	}
	cells := make([]int, len(weights))
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	if wsum == 0 || total <= 0 {
		return cells
	}
	assigned := 0
	rems := make([]frac, 0, len(weights))
	for i, w := range weights {
		exact := w / wsum * float64(total)
		floor := int(exact)
		cells[i] = floor
		assigned += floor
		rems = append(rems, frac{i, exact - float64(floor)})
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].rem != rems[b].rem {
			return rems[a].rem > rems[b].rem
		}
		return rems[a].idx < rems[b].idx
	})
	for k := 0; k < total-assigned && k < len(rems); k++ {
		cells[rems[k].idx]++
	}
	return cells
}

// FromEntries reconstructs a Distribution from parsed procfs entries
// (the kernel-module side of the interface).
func FromEntries(params Params, outliers, bins []Entry) (*Distribution, error) {
	params = params.withDefaults()
	if err := params.check(); err != nil {
		return nil, err
	}
	d := &Distribution{Params: params, Outliers: outliers, Bins: bins}
	if err := d.expand(); err != nil {
		return nil, err
	}
	return d, nil
}

// expand fills the sampling arrays from the entries and checks the
// DIST_READY conditions (A.2.2: "will only succeed if the distribution is
// complete and correct").
func (d *Distribution) expand() error {
	p := d.Params
	d.outlierArr = make([]int32, p.Precision)
	d.binArr = make([]int32, p.Precision)
	pos := 0
	for _, e := range d.Outliers {
		if e.Size < 0 || e.Size > p.MaxSize {
			return fmt.Errorf("dist: outlier size %d out of range", e.Size)
		}
		if e.Cells < 0 || e.Cells > p.Precision-pos {
			return fmt.Errorf("dist: outlier cells overflow precision %d", p.Precision)
		}
		for k := 0; k < e.Cells; k++ {
			d.outlierArr[pos] = int32(e.Size)
			pos++
		}
	}
	for ; pos < p.Precision; pos++ {
		d.outlierArr[pos] = -1
	}

	pos = 0
	for _, e := range d.Bins {
		if e.Size < 0 || e.Size > p.MaxSize {
			return fmt.Errorf("dist: bin start %d out of range", e.Size)
		}
		if e.Size%p.BinSize != 0 {
			return fmt.Errorf("dist: bin start %d not aligned to width %d", e.Size, p.BinSize)
		}
		if e.Cells < 0 || e.Cells > p.Precision-pos {
			return fmt.Errorf("dist: bin cells overflow precision %d", p.Precision)
		}
		for k := 0; k < e.Cells; k++ {
			d.binArr[pos] = int32(e.Size)
			pos++
		}
	}
	// Unfilled bin cells fall back to the first bin entry (or size 0 for a
	// pure-outlier distribution where the bins array is unreachable): the
	// outliers array then never selects -1 into an undefined cell.
	fallback := int32(0)
	if len(d.Bins) > 0 {
		fallback = int32(d.Bins[0].Size)
	}
	for ; pos < p.Precision; pos++ {
		d.binArr[pos] = fallback
	}
	return nil
}

// Sample draws one packet size following Figure 4.3: index the outliers
// array; on -1, index the bins array and add jitter within the bin.
func (d *Distribution) Sample(rng *RNG) int {
	v := d.outlierArr[rng.Intn(len(d.outlierArr))]
	if v >= 0 {
		return int(v)
	}
	base := d.binArr[rng.Intn(len(d.binArr))]
	size := int(base) + rng.Intn(d.Params.BinSize)
	if size > d.Params.MaxSize {
		size = d.Params.MaxSize
	}
	return size
}

// Mean returns the expected packet size of the represented distribution.
func (d *Distribution) Mean() float64 {
	p := float64(len(d.outlierArr))
	var mean float64
	nonOutlier := 0.0
	for _, c := range d.outlierArr {
		if c >= 0 {
			mean += float64(c) / p
		} else {
			nonOutlier++
		}
	}
	if nonOutlier > 0 {
		var binMean float64
		for _, b := range d.binArr {
			binMean += float64(b) + float64(d.Params.BinSize-1)/2
		}
		binMean /= float64(len(d.binArr))
		mean += nonOutlier / p * binMean
	}
	return mean
}

// OutlierMass returns the probability of the first stage resolving the
// size (the fraction of non -1 cells).
func (d *Distribution) OutlierMass() float64 {
	n := 0
	for _, c := range d.outlierArr {
		if c >= 0 {
			n++
		}
	}
	return float64(n) / float64(len(d.outlierArr))
}
