package testbed

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

func small() core.Workload {
	return core.Workload{Packets: 4000, TargetRate: 600e6, Seed: 1}
}

// wrapOnly injects only the SNMP counter preload: the switch starts the
// cycle just below the 32-bit wrap.
func wrapOnly() faults.CycleFaults {
	return faults.CycleFaults{WrapPreload: true}
}

func TestRunCycleVerifies(t *testing.T) {
	tb := New(small())
	res, err := tb.RunCycle(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.GeneratedBySwitch() != 4000 {
		t.Fatalf("switch counted %d", res.GeneratedBySwitch())
	}
	if len(res.Sniffers) != 4 {
		t.Fatalf("%d sniffers", len(res.Sniffers))
	}
	names := map[string]bool{}
	for _, s := range res.Sniffers {
		names[s.Name] = true
		if s.Stats.Generated != 4000 {
			t.Fatalf("%s offered %d packets", s.Name, s.Stats.Generated)
		}
	}
	for _, want := range []string{"swan", "snipe", "moorhen", "flamingo"} {
		if !names[want] {
			t.Fatalf("missing sniffer %s", want)
		}
	}
}

func TestSwitchCountersAccumulate(t *testing.T) {
	tb := New(small())
	if _, err := tb.RunCycle(0); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.RunCycle(1); err != nil {
		t.Fatal(err)
	}
	c := tb.Switch.ReadSNMP()
	if c.OutUcastPkts != 8000 {
		t.Fatalf("switch total = %d, want 8000 (counters accumulate across runs)", c.OutUcastPkts)
	}
	if c.InOctets == 0 || c.InOctets != c.OutOctets {
		t.Fatalf("octet counters = %+v", c)
	}
}

func TestSplitterDeliversIdenticalTrains(t *testing.T) {
	// All sniffers must be offered the exact same packet count — and two
	// full cycles with the same rep must reproduce identical capture
	// results (determinism through the whole testbed).
	tb1 := New(small())
	r1, err := tb1.RunCycle(0)
	if err != nil {
		t.Fatal(err)
	}
	tb2 := New(small())
	r2, err := tb2.RunCycle(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Sniffers {
		a, b := r1.Sniffers[i], r2.Sniffers[i]
		if a.Stats.CaptureRate() != b.Stats.CaptureRate() ||
			a.Stats.BusyTime != b.Stats.BusyTime {
			t.Fatalf("sniffer %s not reproducible", a.Name)
		}
	}
}

func TestRepetitionsUseDistinctSeeds(t *testing.T) {
	tb := New(small())
	m, err := tb.RunMeasurement(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 2 {
		t.Fatalf("%d runs", len(m.Runs))
	}
	// Different seeds ⇒ (almost surely) different busy times somewhere.
	same := true
	for i, s := range m.Runs[0].Sniffers {
		if s.Stats.BusyTime != m.Runs[1].Sniffers[i].Stats.BusyTime {
			same = false
		}
	}
	if same {
		t.Fatal("both repetitions produced identical busy times; seeds not varied")
	}
}

func TestProfilingCollectsSamples(t *testing.T) {
	tb := New(small())
	tb.ProfileInterval = 500 * sim.Millisecond
	res, err := tb.RunCycle(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Sniffers {
		if len(s.Usage) == 0 {
			t.Fatalf("%s: no cpusage samples", s.Name)
		}
		if s.UsageAvg.Idle < 0 || s.UsageAvg.Idle > 100 {
			t.Fatalf("%s: implausible trimmed idle %f", s.Name, s.UsageAvg.Idle)
		}
	}
}

func TestReportAndRates(t *testing.T) {
	tb := New(small())
	m, err := tb.RunMeasurement(1)
	if err != nil {
		t.Fatal(err)
	}
	rates := m.CaptureRates()
	if len(rates) != 4 || len(rates["moorhen"]) != 1 {
		t.Fatalf("rates = %v", rates)
	}
	if rates["moorhen"][0] < 99 {
		t.Fatalf("moorhen = %.2f%% at 600 Mbit/s", rates["moorhen"][0])
	}
	rep := m.Report()
	for _, want := range []string{"swan", "moorhen", "# rep"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestVerifyCatchesMismatch(t *testing.T) {
	r := RunResult{GeneratedFrames: 10}
	r.CountersAfter.OutUcastPkts = 9
	if err := r.Verify(); err == nil {
		t.Fatal("verification accepted counter mismatch")
	}
}

// TestCounterDeltaSingleWrap pins the exact single-wrap boundary: a read
// just below 2^32 followed by one just above must produce the true delta,
// and the off-by-one cases around the boundary must too.
func TestCounterDeltaSingleWrap(t *testing.T) {
	wrap := uint64(1) << 32
	cases := []struct {
		before, after, want uint64
	}{
		{wrap - 1, 0, 1},        // lands exactly on the wrap
		{wrap - 1, wrap - 1, 0}, // no movement at the edge
		{wrap - 100, 50, 150},   // crosses it mid-delta
		{0, wrap - 1, wrap - 1}, // full range, no wrap
		{123, 456, 333},         // plain case
	}
	for _, c := range cases {
		if got := CounterDelta(c.after%wrap, c.before%wrap); got != c.want {
			t.Errorf("CounterDelta(%d, %d) = %d, want %d", c.after, c.before, got, c.want)
		}
	}
}

// TestCounterDeltaNearMultiWrap pins the 100G regression: the Counter32
// octet counter wraps every ~0.34 s at line rate, so a cycle's delta can
// span many wraps; CounterDeltaNear must recover the true delta from
// gen's expectation while CounterDelta (single-wrap discipline)
// undercounts by a multiple of 2^32.
func TestCounterDeltaNearMultiWrap(t *testing.T) {
	wrap := uint64(1) << 32
	// ~12.5 GB on the wire — one second at 100 Gbit/s, Counter32 wraps
	// twice and lands mid-range.
	truth := 2*wrap + 123456789
	before := uint64(987654)
	after := (before + truth) % wrap
	if got := CounterDelta(after, before); got == truth {
		t.Fatal("single-wrap delta cannot represent a multi-wrap interval; test is vacuous")
	}
	for _, errOff := range []int64{0, -1000000, 1000000, 1 << 30, -(1 << 30)} {
		expected := uint64(int64(truth) + errOff)
		if got := CounterDeltaNear(after, before, expected); got != truth {
			t.Errorf("CounterDeltaNear(expected=truth%+d) = %d, want %d", errOff, got, truth)
		}
	}
	// Exact values and sub-wrap cases degrade to CounterDelta.
	if got := CounterDeltaNear(500, 100, 400); got != 400 {
		t.Errorf("sub-wrap CounterDeltaNear = %d, want 400", got)
	}
	if got := CounterDeltaNear(50, wrap-50, 100); got != 100 {
		t.Errorf("single-wrap CounterDeltaNear = %d, want 100", got)
	}
}

// TestOctetVerifyAcrossWrap runs a full cycle with the counters parked
// just below the Counter32 wrap: both the packet and octet deltas cross
// the boundary and Verify must still pass.
func TestOctetVerifyAcrossWrap(t *testing.T) {
	tb := New(small())
	res := tb.RunCycleFaults(0, wrapOnly())
	if res.GeneratedOctets == 0 {
		t.Fatal("cycle did not record gen's octet count")
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("wrap-crossing cycle failed verification: %v", err)
	}
	if res.OctetsBySwitch() != res.GeneratedOctets {
		t.Fatalf("octet ground truth %d != gen %d", res.OctetsBySwitch(), res.GeneratedOctets)
	}
}

// TestOctetVerifyCatchesLoss: octets missing on the wire surface as a
// typed OctetMismatchError once frames happen to agree.
func TestOctetVerifyCatchesLoss(t *testing.T) {
	tb := New(small())
	res := tb.RunCycleFaults(0, wrapOnly())
	res.GeneratedOctets += 1000 // gen claims more bytes than the switch saw
	err := res.Verify()
	if err == nil {
		t.Fatal("octet mismatch accepted")
	}
	if _, ok := err.(*OctetMismatchError); !ok {
		t.Fatalf("want *OctetMismatchError, got %T: %v", err, err)
	}
	// Hand-built results (no octet statistics) keep verifying as before.
	res.GeneratedOctets = 0
	if err := res.Verify(); err != nil {
		t.Fatalf("octet check not gated on GeneratedOctets: %v", err)
	}
}
