package testbed

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func small() core.Workload {
	return core.Workload{Packets: 4000, TargetRate: 600e6, Seed: 1}
}

// nearWrap parks the switch's port counters just below the Counter32
// wrap, so the next cycle's packet and octet deltas both cross it.
func nearWrap(tb *Testbed) {
	n := uint64(tb.Workload.Packets)
	pkts, octets := counterWrap-n/2-1, counterWrap-n-1
	tb.Switch.Preload(SNMPCounters{
		InUcastPkts: pkts, OutUcastPkts: pkts, InOctets: octets, OutOctets: octets,
	})
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

// TestFaultCounterWrapDelta is the regression test for the uint64
// underflow in GeneratedBySwitch: with the switch's Counter32 entries
// wrapping between the two SNMP reads, the naive subtraction returned
// ~1.8×10¹⁹ instead of the true delta.
func TestFaultCounterWrapDelta(t *testing.T) {
	if d := CounterDelta(100, (uint64(1)<<32)-50); d != 150 {
		t.Fatalf("wrapped delta = %d, want 150", d)
	}
	if d := CounterDelta(500, 200); d != 300 {
		t.Fatalf("plain delta = %d, want 300", d)
	}
	var r RunResult
	r.CountersBefore.OutUcastPkts = (uint64(1) << 32) - 1000
	r.CountersAfter.OutUcastPkts = 3000
	if got := r.GeneratedBySwitch(); got != 4000 {
		t.Fatalf("GeneratedBySwitch across the wrap = %d, want 4000", got)
	}

	// End to end: preload the switch just below the wrap, run a full
	// cycle, and the verification must still hold.
	tb := New(small())
	tb.Switch.Preload(SNMPCounters{
		InUcastPkts: (uint64(1) << 32) - 2000, OutUcastPkts: (uint64(1) << 32) - 2000,
	})
	res, err := tb.RunCycle(0)
	if err != nil {
		t.Fatalf("wrapped cycle failed verification: %v", err)
	}
	if res.GeneratedBySwitch() != 4000 {
		t.Fatalf("wrapped cycle counted %d", res.GeneratedBySwitch())
	}
	if res.CountersAfter.OutUcastPkts >= uint64(1)<<32 {
		t.Fatalf("switch counter exceeded Counter32: %d", res.CountersAfter.OutUcastPkts)
	}
}

// TestFaultVerifyErrorPaths covers the typed validation failures.
func TestFaultVerifyErrorPaths(t *testing.T) {
	// Switch/gen mismatch.
	r := RunResult{GeneratedFrames: 10}
	r.CountersAfter.OutUcastPkts = 9
	var cm *CountMismatchError
	if err := r.Verify(); !errors.As(err, &cm) || cm.Switch != 9 || cm.Gen != 10 {
		t.Fatalf("count mismatch: %v", err)
	}

	// Sniffer offered fewer packets than the switch forwarded.
	r = RunResult{GeneratedFrames: 10}
	r.CountersAfter.OutUcastPkts = 10
	sr := SnifferResult{Name: "swan"}
	sr.Stats.Generated = 7
	r.Sniffers = []SnifferResult{sr}
	var sh *ShortfallError
	if err := r.Verify(); !errors.As(err, &sh) || sh.Name != "swan" || sh.Offered != 7 {
		t.Fatalf("shortfall: %v", err)
	}

	// Every sniffer offered the full train: the run verifies.
	r.Sniffers[0].Stats.Generated = 10
	if err := r.Verify(); err != nil {
		t.Fatalf("consistent run failed verification: %v", err)
	}
}

// TestFaultMeasurementAggregationHandlesMissingSniffer: hand-built
// degraded measurements (one run missing a sniffer) aggregate without
// panics or phantom entries.
func TestFaultMeasurementAggregationHandlesMissingSniffer(t *testing.T) {
	mk := func(name string, rate float64) SnifferResult {
		sr := SnifferResult{Name: name}
		sr.Stats.Generated = 100
		sr.Stats.AppCaptured = []uint64{uint64(rate)}
		return sr
	}
	m := Measurement{Runs: []RunResult{
		{Rep: 0, Sniffers: []SnifferResult{mk("swan", 90), mk("moorhen", 95)}},
		{Rep: 1, Sniffers: []SnifferResult{mk("swan", 91)}}, // moorhen missing
	}}
	rates := m.CaptureRates()
	if len(rates["swan"]) != 2 || len(rates["moorhen"]) != 1 {
		t.Fatalf("rates = %v", rates)
	}
	rep := m.Report()
	if strings.Count(rep, "swan") != 2 || strings.Count(rep, "moorhen") != 1 {
		t.Fatalf("report rows wrong:\n%s", rep)
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
	nearWrap(tb)
	res, err := tb.RunCycle(0)
	if err != nil {
		t.Fatalf("wrap-crossing cycle failed verification: %v", err)
	}
	if res.GeneratedOctets == 0 {
		t.Fatal("cycle did not record gen's octet count")
	}
	if res.CountersAfter.OutUcastPkts >= res.CountersBefore.OutUcastPkts ||
		res.CountersAfter.OutOctets >= res.CountersBefore.OutOctets {
		t.Fatalf("counters did not wrap: %+v → %+v", res.CountersBefore, res.CountersAfter)
	}
	if res.OctetsBySwitch() != res.GeneratedOctets {
		t.Fatalf("octet ground truth %d != gen %d", res.OctetsBySwitch(), res.GeneratedOctets)
	}
}

// TestOctetVerifyCatchesLoss: octets missing on the wire surface as a
// typed OctetMismatchError once frames happen to agree.
func TestOctetVerifyCatchesLoss(t *testing.T) {
	tb := New(small())
	nearWrap(tb)
	res, err := tb.RunCycle(0)
	if err != nil {
		t.Fatal(err)
	}
	res.GeneratedOctets += 1000 // gen claims more bytes than the switch saw
	err = res.Verify()
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

// TestCycleGolden pins the clean measurement cycle end to end: the
// per-run report and every sniffer's trimmed cpusage average over two
// profiled repetitions. Set UPDATE_GOLDEN=1 to rewrite the file.
func TestCycleGolden(t *testing.T) {
	tb := New(small())
	tb.ProfileInterval = 500 * sim.Millisecond
	m, err := tb.RunMeasurement(2)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(m.Report())
	for _, run := range m.Runs {
		for _, s := range run.Sniffers {
			fmt.Fprintf(&b, "%d\t%s\t%+v\n", run.Rep, s.Name, s.UsageAvg)
		}
	}
	golden := filepath.Join("testdata", "cycle.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("cycle drifted:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}
