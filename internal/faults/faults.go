// Package faults is the seeded, deterministic fault model of the
// measurement testbed. The thesis repeats every (system, rate) point
// "several times … to avoid outliers or unwanted influences" (§3.4)
// because a real Figure 3.1 testbed misbehaves: SNMP counters return
// stale reads, pktgen underruns its target rate or stalls mid-train, a
// sniffer hangs or crashes without returning statistics, the optical
// splitter degrades one fiber leg. This package decides — purely as a
// function of (seed, measurement point, component, repetition, attempt) —
// which of those failures one attempt of one measurement cell exhibits
// (Stale, Gen, Sniffer), so the fault supervision of core.Run is exactly
// reproducible and every assertion about retry, quarantine and
// degradation can be made deterministically from the seed.
//
// Fault persistence mirrors the physical failure: transient faults (a
// stale SNMP read, a generator hiccup, a hung process) are re-rolled per
// attempt, so a retry can succeed; a degraded splitter leg is keyed
// without the attempt — re-running the cycle reads the same weak signal;
// a dead sniffer is keyed by (point, sniffer) alone and stays dead for
// the whole measurement, so its cells are quarantined rather than
// retried forever.
package faults

import "repro/internal/mix"

// Kind identifies one injectable failure of the Figure 3.1 testbed. Its
// value salts every draw of that failure, so the numbering is part of
// the seeded fault schedule: the blank entries hold the places of two
// retired kinds, and every later kind keeps its value and its draws.
type Kind int

const (
	// SNMPStale: the post-run counter read returns the pre-run snapshot
	// (the agent served a cached ifTable row).
	SNMPStale Kind = iota
	// (retired: the counter-wrap preload)
	_
	// GenUnderrun: pktgen emits only a fraction of the intended train
	// (the MoonGen observation: generators are imprecise under load).
	GenUnderrun
	// GenStall: pktgen stalls mid-train and never finishes it.
	GenStall
	// SnifferHang: the capturing application hangs; stop.sh collects no
	// statistics for this sniffer.
	SnifferHang
	// SnifferCrash: the capturing application dies mid-run; no statistics.
	SnifferCrash
	// SnifferDead: persistent variant of SnifferCrash — the machine is
	// down for the whole measurement and every retry fails.
	SnifferDead
	// (retired: the truncated cpusage log)
	_
	// SplitterLegLoss: one splitter output leg is degraded; a fraction of
	// the frames the switch counted never reach that sniffer's NIC.
	SplitterLegLoss
)

// Plan is the calibrated fault mix: per-roll probabilities and fault
// magnitudes. The zero Plan injects nothing; DefaultPlan returns the
// chaos-suite mix. All draws are pure functions of Seed and the roll key,
// so concurrent use is safe and replays are exact.
type Plan struct {
	Seed uint64

	PStale    float64 // per (point, rep, attempt): stale SNMP read
	PUnderrun float64 // per (point, rep, attempt): generator underrun
	PStall    float64 // per (point, rep, attempt): generator mid-train stall
	PHang     float64 // per (sniffer, point, rep, attempt): hang, no stats
	PCrash    float64 // per (sniffer, point, rep, attempt): crash, no stats
	PLegLoss  float64 // per (sniffer, point, rep): degraded splitter leg
	PDead     float64 // per (sniffer, point): sniffer down for the measurement

	UnderrunFrac float64 // fraction of the train emitted on underrun
	StallFrac    float64 // fraction of the train emitted before a stall
	LegLossRatio float64 // per-frame loss probability on a degraded leg
}

// DefaultPlan returns the calibrated chaos mix: every fault class occurs
// with noticeable frequency over a sweep, transient faults clear within a
// small retry budget with high probability, and persistent faults are rare
// enough that degradation stays the exception.
func DefaultPlan(seed uint64) *Plan {
	return &Plan{
		Seed:         seed,
		PStale:       0.06,
		PUnderrun:    0.05,
		PStall:       0.03,
		PHang:        0.04,
		PCrash:       0.03,
		PLegLoss:     0.04,
		PDead:        0.004,
		UnderrunFrac: 0.7,
		StallFrac:    0.4,
		LegLossRatio: 0.02,
	}
}

// roll draws a deterministic Bernoulli with probability prob for the key.
func (p *Plan) roll(prob float64, kind Kind, keys ...uint64) bool {
	if p == nil || prob <= 0 {
		return false
	}
	k := append([]uint64{p.Seed, uint64(kind) * mix.Golden}, keys...)
	return mix.Unit(mix.Keys(k...)) < prob
}

// SnifferFaults are the faults one sniffer exhibits in one cycle attempt.
type SnifferFaults struct {
	Hang, Crash bool
	// Dead marks the persistent failure: set on every attempt of every
	// repetition once the (point, sniffer) dead roll fires.
	Dead bool
	// LegLoss is the per-frame loss probability of this sniffer's splitter
	// leg (0 = healthy). Persists across the attempts of one repetition;
	// Plan.LegSeed selects the (equally persistent) drop pattern.
	LegLoss float64
}

// Stale draws the stale-SNMP-read fault of one cycle attempt. The key
// carries no component: one control host polls one switch, so every
// sniffer of the cycle sees the same corrupted ground truth. Re-rolled per
// attempt — the retry's fresh SNMP poll usually reads correctly.
func (p *Plan) Stale(point uint64, rep, attempt int) bool {
	if p == nil {
		return false
	}
	return p.roll(p.PStale, SNMPStale, point, uint64(rep), uint64(attempt))
}

// Gen draws the generator-side fault of one cycle attempt: frac > 0 means
// the generator emits only that fraction of the intended train (stall
// distinguishes a mid-train stall from a plain underrun in the fault log).
// Like Stale, the draw is shared by every sniffer of the cycle — there is
// one generator — and re-rolled per attempt.
func (p *Plan) Gen(point uint64, rep, attempt int) (frac float64, stall bool) {
	if p == nil {
		return 0, false
	}
	r, a := uint64(rep), uint64(attempt)
	if p.roll(p.PUnderrun, GenUnderrun, point, r, a) {
		return p.UnderrunFrac, false
	}
	if p.roll(p.PStall, GenStall, point, r, a) {
		return p.StallFrac, true
	}
	return 0, false
}

// Sniffer draws the fault assignment of one sniffer for one cycle attempt
// — the per-cell form the sweep engine uses, where every (system, rate,
// repetition) cell is one independent sniffer run.
func (p *Plan) Sniffer(name string, point uint64, rep, attempt int) SnifferFaults {
	var sf SnifferFaults
	if p == nil {
		return sf
	}
	c, r, a := mix.String(name), uint64(rep), uint64(attempt)
	// Persistent death: keyed by (point, sniffer) only.
	if p.roll(p.PDead, SnifferDead, point, c) {
		sf.Dead = true
		return sf
	}
	if p.roll(p.PHang, SnifferHang, point, c, r, a) {
		sf.Hang = true
	} else if p.roll(p.PCrash, SnifferCrash, point, c, r, a) {
		sf.Crash = true
	}
	// A degraded leg does not heal on retry: keyed without the attempt.
	if p.roll(p.PLegLoss, SplitterLegLoss, point, c, r) {
		sf.LegLoss = p.LegLossRatio
	}
	return sf
}

// LegSeed derives the per-leg drop-pattern seed for a lossy splitter leg,
// so the same (plan, point, sniffer, rep) always loses the same frames.
func (p *Plan) LegSeed(name string, point uint64, rep int) uint64 {
	if p == nil {
		return 0
	}
	return mix.Keys(p.Seed, mix.String(name), point, uint64(rep), 0x5eed1e9)
}
