package faults

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/pktgen"
	"repro/internal/sim"
)

// cellDraws is every draw of one cell attempt at one point across the
// four thesis sniffers.
type cellDraws struct {
	stale bool
	frac  float64
	stall bool
	sniff [4]SnifferFaults
}

func drawCells(p *Plan, point uint64, rep, attempt int) cellDraws {
	d := cellDraws{stale: p.Stale(point, rep, attempt)}
	d.frac, d.stall = p.Gen(point, rep, attempt)
	for i, name := range []string{"swan", "snipe", "moorhen", "flamingo"} {
		d.sniff[i] = p.Sniffer(name, point, rep, attempt)
	}
	return d
}

func TestFaultDrawsAreDeterministic(t *testing.T) {
	p1 := DefaultPlan(42)
	p2 := DefaultPlan(42)
	for rep := 0; rep < 20; rep++ {
		for attempt := 0; attempt < 3; attempt++ {
			if a, b := drawCells(p1, 7, rep, attempt), drawCells(p2, 7, rep, attempt); a != b {
				t.Fatalf("rep %d attempt %d: %+v vs %+v", rep, attempt, a, b)
			}
		}
		if a, b := p1.LegSeed("swan", 7, rep), p2.LegSeed("swan", 7, rep); a != b {
			t.Fatalf("rep %d: leg seeds %#x vs %#x", rep, a, b)
		}
	}
}

func TestFaultSeedChangesDraws(t *testing.T) {
	draws := func(seed uint64) (all []cellDraws, faulted int) {
		p := DefaultPlan(seed)
		for rep := 0; rep < 50; rep++ {
			d := drawCells(p, 1, rep, 0)
			if d != (cellDraws{}) {
				faulted++
			}
			all = append(all, d)
		}
		return all, faulted
	}
	first, faulted := draws(1)
	if faulted == 0 {
		t.Fatal("default plan injected nothing over 50 cycles")
	}
	for seed := uint64(2); seed < 6; seed++ {
		if other, _ := draws(seed); !reflect.DeepEqual(other, first) {
			return
		}
	}
	t.Fatal("fault draws identical across 5 seeds")
}

func TestFaultPersistenceClasses(t *testing.T) {
	p := DefaultPlan(0)
	p.PHang, p.PCrash, p.PDead, p.PStale, p.PUnderrun, p.PStall = 0, 0, 0, 0, 0, 0
	p.PLegLoss = 1 // every (sniffer, point, rep) leg degraded
	a0 := p.Sniffer("swan", 3, 2, 0)
	a1 := p.Sniffer("swan", 3, 2, 1)
	if a0.LegLoss == 0 || a0.LegLoss != a1.LegLoss {
		t.Fatalf("leg loss must persist across attempts: %v vs %v", a0, a1)
	}
	p.PLegLoss = 0
	p.PDead = 1
	for rep := 0; rep < 3; rep++ {
		for attempt := 0; attempt < 3; attempt++ {
			if !p.Sniffer("swan", 3, rep, attempt).Dead {
				t.Fatalf("dead sniffer healed at rep %d attempt %d", rep, attempt)
			}
		}
	}
	// Transient faults must be re-rolled per attempt: with p = 0.5 over 64
	// attempts, at least one draw must differ from the first.
	p.PDead = 0
	p.PHang = 0.5
	first := p.Sniffer("swan", 3, 0, 0).Hang
	varied := false
	for attempt := 1; attempt < 64; attempt++ {
		if p.Sniffer("swan", 3, 0, attempt).Hang != first {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("hang draw did not vary over 64 attempts at p=0.5")
	}
}

func TestFaultNilPlanInjectsNothing(t *testing.T) {
	var p *Plan
	if d := drawCells(p, 1, 0, 0); d != (cellDraws{}) || p.LegSeed("swan", 1, 0) != 0 {
		t.Fatalf("nil plan produced faults: %+v", d)
	}
}

func TestFaultRollFrequency(t *testing.T) {
	p := &Plan{Seed: 9}
	n := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if p.roll(0.1, SnifferHang, uint64(i)) {
			n++
		}
	}
	got := float64(n) / trials
	if math.Abs(got-0.1) > 0.01 {
		t.Fatalf("empirical probability %.4f, want ≈0.10", got)
	}
}

// sliceSource replays a fixed packet list (test stand-in for a feed).
type sliceSource struct {
	pkts []pktgen.Packet
	i    int
}

func (s *sliceSource) Reset() { s.i = 0 }
func (s *sliceSource) Next() (pktgen.Packet, bool) {
	if s.i >= len(s.pkts) {
		return pktgen.Packet{}, false
	}
	p := s.pkts[s.i]
	s.i++
	return p, true
}

func mkTrain(n int) []pktgen.Packet {
	pkts := make([]pktgen.Packet, n)
	data := make([]byte, 64)
	for i := range pkts {
		pkts[i] = pktgen.Packet{At: sim.Time(1000 * (i + 1)), Data: data}
	}
	return pkts
}

func TestFaultLossySourceDeterministicAndCounted(t *testing.T) {
	train := mkTrain(5000)
	run := func() (kept int, lost int, lostBytes uint64) {
		s := NewLossySource(&sliceSource{pkts: train}, 77, 0.1)
		for {
			if _, ok := s.Next(); !ok {
				break
			}
			kept++
		}
		return kept, s.Lost, s.LostBytes
	}
	k1, l1, b1 := run()
	k2, l2, b2 := run()
	if k1 != k2 || l1 != l2 || b1 != b2 {
		t.Fatalf("lossy leg not reproducible: %d/%d vs %d/%d", k1, l1, k2, l2)
	}
	if k1+l1 != 5000 {
		t.Fatalf("kept %d + lost %d != 5000", k1, l1)
	}
	if b1 != uint64(l1)*64 {
		t.Fatalf("lost bytes %d for %d frames of 64 B", b1, l1)
	}
	frac := float64(l1) / 5000
	if math.Abs(frac-0.1) > 0.02 {
		t.Fatalf("loss fraction %.4f, want ≈0.10", frac)
	}
	// Reset must clear the accounting and reproduce the same pattern.
	s := NewLossySource(&sliceSource{pkts: train}, 77, 0.1)
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	s.Reset()
	if s.Lost != 0 || s.LostBytes != 0 {
		t.Fatal("Reset did not clear loss accounting")
	}
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != k1 || s.Lost != l1 {
		t.Fatalf("replay after Reset diverged: kept %d lost %d", n, s.Lost)
	}
}

func TestFaultTruncatedSourceCountsShortfall(t *testing.T) {
	train := mkTrain(1000)
	s := NewTruncatedSource(&sliceSource{pkts: train}, 700)
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != 700 {
		t.Fatalf("emitted %d frames, want 700", n)
	}
	if s.Cut != 300 || s.CutBytes != 300*64 {
		t.Fatalf("shortfall = %d pkts / %d bytes, want 300 / %d", s.Cut, s.CutBytes, 300*64)
	}
	// Asking again stays exhausted without re-draining.
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted source yielded a frame")
	}
	if s.Cut != 300 {
		t.Fatalf("double drain: Cut = %d", s.Cut)
	}
	s.Reset()
	if s.Cut != 0 || s.CutBytes != 0 {
		t.Fatal("Reset did not clear shortfall")
	}
}
