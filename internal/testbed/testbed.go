// Package testbed models the complete measurement infrastructure of
// Chapter 3 — not just one system under test, but the whole Figure 3.1
// setup: the workload generator host (gen), the Cisco monitoring switch
// with its SNMP packet counters, the passive optical splitter feeding all
// four sniffers the identical stream, and the control host executing the
// §3.4 measurement cycle:
//
//  1. start the capturing and profiling applications on all sniffers,
//  2. read the switch's SNMP packet counters,
//  3. run the packet generation on gen,
//  4. read the counters again,
//  5. stop the applications and collect their statistics,
//
// repeated several times per data rate "to avoid outliers or unwanted
// influences".
//
// The splitter is realized by replaying the identical deterministic packet
// train into each sniffer's independent simulator — exactly the guarantee
// the optical splitter provides ("their only influence is a reduced signal
// strength", §2.3). The switch counters are the measurement's ground truth
// for the number of generated packets.
package testbed

import (
	"fmt"
	"strings"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/cpuprof"
	"repro/internal/sim"
)

// SNMPCounters mirrors the switch port counters the control host polls
// via SNMP before and after each run (§3.4 steps 2 and 4). Like the real
// ifTable entries (Counter32), they are 32-bit and wrap at 2³² — at
// gigabit packet rates ifInUcastPkts wraps in well under an hour, so the
// delta computation must be wrap-aware.
type SNMPCounters struct {
	InUcastPkts  uint64 // packets received from gen
	InOctets     uint64
	OutUcastPkts uint64 // packets mirrored to the splitter port
	OutOctets    uint64
}

// counterWrap is the modulus of the switch's Counter32 ifTable entries.
const counterWrap = uint64(1) << 32

// CounterDelta returns after − before on a 32-bit wrapping counter. The
// naive uint64 subtraction underflows to ~1.8×10¹⁹ when the counter
// wrapped between the two reads; this accounts for one wrap, which is the
// §3.4 polling discipline (the cycle is far shorter than two wraps).
func CounterDelta(after, before uint64) uint64 {
	if after < before {
		return after + counterWrap - before
	}
	return after - before
}

// CounterDeltaNear returns after − before on a 32-bit wrapping counter
// that may have wrapped MORE than once between the reads, disambiguated
// by an independent expectation (gen's own statistics). At 100 Gbit/s
// the Counter32 octet counters wrap every ~0.34 s — a single cycle spans
// many wraps, so the §3.4 single-wrap discipline undercounts by a
// multiple of 2³². The closest value congruent to the raw delta mod 2³²
// is the true delta as long as the expectation is within 2³¹ of the
// truth, which a per-cycle cross-check always is.
func CounterDeltaNear(after, before, expected uint64) uint64 {
	base := CounterDelta(after, before)
	if expected <= base {
		return base
	}
	k := (expected - base + counterWrap/2) / counterWrap
	return base + k*counterWrap
}

// Switch is the monitoring switch: it counts what gen sends and mirrors it
// to the splitter. The VLAN separation of the control traffic (Figure 3.1)
// means SNMP polling never appears on the measurement port.
type Switch struct {
	counters SNMPCounters
}

// Count registers one forwarded frame. Counters wrap at 2³² like the
// ifTable Counter32 entries they model.
func (sw *Switch) Count(frameLen int) {
	sw.counters.InUcastPkts = (sw.counters.InUcastPkts + 1) % counterWrap
	sw.counters.InOctets = (sw.counters.InOctets + uint64(frameLen)) % counterWrap
	sw.counters.OutUcastPkts = (sw.counters.OutUcastPkts + 1) % counterWrap
	sw.counters.OutOctets = (sw.counters.OutOctets + uint64(frameLen)) % counterWrap
}

// Preload sets the counters to a given state, e.g. just below the 32-bit
// wrap so the next cycle's deltas must cross it.
func (sw *Switch) Preload(c SNMPCounters) { sw.counters = c }

// ReadSNMP returns a snapshot of the counters (an SNMP GET of the ifTable
// entries for the data ports).
func (sw *Switch) ReadSNMP() SNMPCounters { return sw.counters }

// SnifferResult is what stop.sh collects from one sniffer after a run.
type SnifferResult struct {
	Name     string
	Stats    capture.Stats
	Usage    []cpuprof.Sample // the cpusage log of the run
	UsageAvg cpuprof.Sample   // trimusage average over the busy window
}

// RunResult is one complete measurement cycle iteration.
type RunResult struct {
	Rep             int
	CountersBefore  SNMPCounters
	CountersAfter   SNMPCounters
	GeneratedFrames uint64 // from gen's own statistics
	// GeneratedOctets is the wire byte count from gen's statistics. Zero
	// means "not recorded" (hand-built results) and disables the octet
	// cross-check in Verify.
	GeneratedOctets uint64
	Sniffers        []SnifferResult
}

// GeneratedBySwitch returns the ground-truth packet count for the run,
// accounting for the 32-bit wrap of the switch's ifTable counters.
func (r RunResult) GeneratedBySwitch() uint64 {
	return CounterDelta(r.CountersAfter.OutUcastPkts, r.CountersBefore.OutUcastPkts)
}

// OctetsBySwitch returns the ground-truth wire byte count for the run.
// Unlike the packet counter, the octet counter wraps every ~0.34 s at
// 100 Gbit/s, so the delta needs gen's byte count to disambiguate the
// wrap multiple.
func (r RunResult) OctetsBySwitch() uint64 {
	return CounterDeltaNear(r.CountersAfter.OutOctets, r.CountersBefore.OutOctets, r.GeneratedOctets)
}

// CountMismatchError: the switch's ground truth disagrees with gen's own
// statistics — the generator underran, stalled, or the SNMP read was
// stale.
type CountMismatchError struct {
	Switch, Gen uint64
}

func (e *CountMismatchError) Error() string {
	return fmt.Sprintf("testbed: switch counted %d packets, gen sent %d", e.Switch, e.Gen)
}

// OctetMismatchError: the switch's octet ground truth disagrees with
// gen's byte count even after wrap recovery — bytes went missing on the
// wire, or the counter wrapped further than the expectation can resolve.
type OctetMismatchError struct {
	Switch, Gen uint64
}

func (e *OctetMismatchError) Error() string {
	return fmt.Sprintf("testbed: switch counted %d octets, gen sent %d", e.Switch, e.Gen)
}

// ShortfallError: a sniffer was offered fewer packets than the switch
// forwarded.
type ShortfallError struct {
	Name          string
	Offered, Want uint64
}

func (e *ShortfallError) Error() string {
	return fmt.Sprintf("testbed: sniffer %s was offered %d packets, want %d",
		e.Name, e.Offered, e.Want)
}

// Verify checks the §3.2 requirement that "all generated packets are
// indeed sent over the fiber": gen's statistics must agree with the
// switch counters, and every sniffer must have been offered that many
// packets. Failures come back as typed errors (*CountMismatchError,
// *OctetMismatchError, *ShortfallError).
func (r RunResult) Verify() error {
	if got := r.GeneratedBySwitch(); got != r.GeneratedFrames {
		return &CountMismatchError{Switch: got, Gen: r.GeneratedFrames}
	}
	if r.GeneratedOctets != 0 {
		if got := r.OctetsBySwitch(); got != r.GeneratedOctets {
			return &OctetMismatchError{Switch: got, Gen: r.GeneratedOctets}
		}
	}
	for _, s := range r.Sniffers {
		if s.Stats.Generated != r.GeneratedFrames {
			return &ShortfallError{Name: s.Name, Offered: s.Stats.Generated, Want: r.GeneratedFrames}
		}
	}
	return nil
}

// Testbed is the assembled measurement environment.
type Testbed struct {
	Switch   Switch
	Sniffers []capture.Config
	Workload core.Workload
	// ProfileInterval enables cpusage sampling on every sniffer at this
	// (uncompressed) interval; 0 disables profiling.
	ProfileInterval sim.Time
}

// New creates a testbed with the four thesis sniffers and the given
// workload.
func New(w core.Workload) *Testbed {
	return &Testbed{Sniffers: core.Sniffers(), Workload: w}
}

// RunCycle executes the measurement cycle once (one repetition, one data
// rate): counters before, generation into all sniffers, counters after,
// collection, verification. The packet train is drawn once through the
// switch and replayed identically into each sniffer — the splitter.
func (tb *Testbed) RunCycle(rep int) (RunResult, error) {
	w := tb.Workload.Rep(rep)
	res := RunResult{Rep: rep, CountersBefore: tb.Switch.ReadSNMP()}
	// The switch port sees the train once, regardless of how many sniffers
	// hang off the splitter.
	gen := w.Generator()
	for {
		p, ok := gen.Next()
		if !ok {
			break
		}
		res.GeneratedOctets += uint64(len(p.Data))
		tb.Switch.Count(len(p.Data))
	}
	res.GeneratedFrames = gen.Sent
	res.CountersAfter = tb.Switch.ReadSNMP()
	for _, cfg := range tb.Sniffers {
		res.Sniffers = append(res.Sniffers, tb.runSniffer(cfg, w))
	}
	return res, res.Verify()
}

func (tb *Testbed) runSniffer(cfg capture.Config, w core.Workload) SnifferResult {
	sys := capture.NewSystem(core.Prepare(cfg, w))
	var sampler *cpuprof.Sampler
	if tb.ProfileInterval > 0 {
		scale := float64(w.Packets) / 1_000_000
		if scale > 1 {
			scale = 1
		}
		interval := sim.Time(float64(tb.ProfileInterval) * scale)
		if interval < sim.Time(1) {
			interval = 1
		}
		sampler = cpuprof.Attach(sys, interval)
	}
	// Each sniffer replays the identical train: a fresh generator with the
	// same seed is the splitter's second output leg.
	sr := SnifferResult{Name: cfg.Name, Stats: sys.RunSource(w.Generator())}
	if sampler != nil {
		sr.Usage = sampler.Samples
		sr.UsageAvg = cpuprof.Summarize(cpuprof.Trim(sampler.Samples, 95)).Avg
	}
	return sr
}

// Measurement aggregates several repetitions at one configuration, the way
// super.sh loops ("this procedure is repeated several times", §3.4 — seven
// in the thesis).
type Measurement struct {
	Runs []RunResult
}

// RunMeasurement performs reps full cycles.
func (tb *Testbed) RunMeasurement(reps int) (Measurement, error) {
	if reps <= 0 {
		reps = 1
	}
	var m Measurement
	for rep := 0; rep < reps; rep++ {
		r, err := tb.RunCycle(rep)
		if err != nil {
			return m, err
		}
		m.Runs = append(m.Runs, r)
	}
	return m, nil
}

// CaptureRates returns per-sniffer capture rates (percent) across runs.
func (m Measurement) CaptureRates() map[string][]float64 {
	out := make(map[string][]float64)
	for _, run := range m.Runs {
		for _, s := range run.Sniffers {
			out[s.Name] = append(out[s.Name], s.Stats.CaptureRate())
		}
	}
	return out
}

// Report renders the measurement like the thesis's per-run tables.
func (m Measurement) Report() string {
	var b strings.Builder
	fmt.Fprintln(&b, "# rep\tgenerated(switch)\tsniffer\tcaptured\trate%\tcpu%")
	for _, run := range m.Runs {
		for _, s := range run.Sniffers {
			var captured uint64
			for _, c := range s.Stats.AppCaptured {
				captured += c
			}
			fmt.Fprintf(&b, "%d\t%d\t%s\t%d\t%6.2f\t%6.2f\n",
				run.Rep, run.GeneratedBySwitch(), s.Name, captured,
				s.Stats.CaptureRate(), s.Stats.CPUUsage())
		}
	}
	return b.String()
}
