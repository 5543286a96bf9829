// Package faults is the seeded, deterministic fault model of the
// measurement testbed. The thesis repeats every (system, rate) point
// "several times … to avoid outliers or unwanted influences" (§3.4)
// because a real Figure 3.1 testbed misbehaves: SNMP counters wrap or
// return stale reads, pktgen underruns its target rate or stalls
// mid-train, a sniffer hangs without returning statistics, the optical
// splitter degrades one fiber leg. This package decides — purely as a
// function of (seed, measurement point, component, repetition, attempt) —
// which of those failures a given cycle exhibits, so chaos runs are
// exactly reproducible and every assertion about retry, quarantine and
// degradation can be made deterministically from the seed.
//
// Fault persistence mirrors the physical failure: transient faults (a
// stale SNMP read, a generator hiccup, a hung process) are re-rolled per
// attempt, so a retry can succeed; a degraded splitter leg is keyed
// without the attempt — re-running the cycle reads the same weak signal;
// a dead sniffer is keyed by (point, sniffer) alone and stays dead for
// the whole measurement, forcing the supervisor to degrade rather than
// retry forever.
package faults

import (
	"fmt"

	"repro/internal/mix"
)

// Kind identifies one injectable failure of the Figure 3.1 testbed.
type Kind int

const (
	// SNMPStale: the post-run counter read returns the pre-run snapshot
	// (the agent served a cached ifTable row).
	SNMPStale Kind = iota
	// SNMPWrap: the switch's 32-bit ifTable counters sit just below 2³²
	// when the cycle starts and wrap during the run.
	SNMPWrap
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
	// UsageTruncated: the cpusage log of the run is cut short (the
	// profiler died before the generation window ended).
	UsageTruncated
	// SplitterLegLoss: one splitter output leg is degraded; a fraction of
	// the frames the switch counted never reach that sniffer's NIC.
	SplitterLegLoss

	NumKinds
)

// String returns the short fault label used in fault logs and NDJSON
// records.
func (k Kind) String() string {
	switch k {
	case SNMPStale:
		return "snmp-stale"
	case SNMPWrap:
		return "snmp-wrap"
	case GenUnderrun:
		return "gen-underrun"
	case GenStall:
		return "gen-stall"
	case SnifferHang:
		return "sniffer-hang"
	case SnifferCrash:
		return "sniffer-crash"
	case SnifferDead:
		return "sniffer-dead"
	case UsageTruncated:
		return "usage-truncated"
	case SplitterLegLoss:
		return "splitter-leg-loss"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Event is one injected fault occurrence, for the per-point fault log.
type Event struct {
	Rep       int     `json:"rep"`
	Attempt   int     `json:"attempt"`
	Component string  `json:"component"` // "switch", "gen", or a sniffer name
	Kind      Kind    `json:"-"`
	Fault     string  `json:"fault"` // Kind.String(), stable in JSON
	Param     float64 `json:"param,omitempty"`
}

func (e Event) String() string {
	if e.Param != 0 {
		return fmt.Sprintf("rep%d.%d %s:%s(%.2g)", e.Rep, e.Attempt, e.Component, e.Fault, e.Param)
	}
	return fmt.Sprintf("rep%d.%d %s:%s", e.Rep, e.Attempt, e.Component, e.Fault)
}

// Plan is the calibrated fault mix: per-roll probabilities and fault
// magnitudes. The zero Plan injects nothing; DefaultPlan returns the
// chaos-suite mix. All draws are pure functions of Seed and the roll key,
// so concurrent use is safe and replays are exact.
type Plan struct {
	Seed uint64

	PStale      float64 // per (point, rep, attempt): stale SNMP read
	PWrap       float64 // per (point, rep): counters start near the 32-bit wrap
	PUnderrun   float64 // per (point, rep, attempt): generator underrun
	PStall      float64 // per (point, rep, attempt): generator mid-train stall
	PHang       float64 // per (sniffer, point, rep, attempt): hang, no stats
	PCrash      float64 // per (sniffer, point, rep, attempt): crash, no stats
	PTruncUsage float64 // per (sniffer, point, rep, attempt): cpusage log cut
	PLegLoss    float64 // per (sniffer, point, rep): degraded splitter leg
	PDead       float64 // per (sniffer, point): sniffer down for the measurement

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
		PWrap:        0.08,
		PUnderrun:    0.05,
		PStall:       0.03,
		PHang:        0.04,
		PCrash:       0.03,
		PTruncUsage:  0.05,
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
	// LegSeed selects the (equally persistent) drop pattern.
	LegLoss       float64
	LegSeed       uint64
	TruncateUsage bool
}

// Failed reports whether the sniffer returns no statistics at all.
func (f SnifferFaults) Failed() bool { return f.Hang || f.Crash || f.Dead }

// CycleFaults is the full fault assignment of one measurement-cycle
// attempt: what the switch, the generator and each sniffer do wrong.
type CycleFaults struct {
	StaleSNMP bool
	// WrapPreload: start the cycle with the switch counters just below the
	// 32-bit wrap so the delta computation must be wrap-aware.
	WrapPreload bool
	// Underrun is the fraction of the train the generator actually emits
	// (0 = no fault). Stall is reported separately in the event log but
	// shares the truncation mechanics.
	Underrun float64
	Stall    bool
	Sniffers map[string]SnifferFaults
	// Events lists every fault drawn for this attempt, for the fault log.
	Events []Event
}

// Any reports whether the attempt carries at least one injected fault.
func (c CycleFaults) Any() bool { return len(c.Events) > 0 }

// Cycle draws the fault assignment for one attempt of one repetition of
// the measurement cycle at the given point key (callers use the workload
// fingerprint; the testbed uses the base seed). A nil Plan draws nothing.
func (p *Plan) Cycle(point uint64, rep, attempt int, sniffers []string) CycleFaults {
	var cf CycleFaults
	if p == nil {
		return cf
	}
	r := uint64(rep)
	add := func(component string, k Kind, param float64) {
		cf.Events = append(cf.Events, Event{
			Rep: rep, Attempt: attempt, Component: component,
			Kind: k, Fault: k.String(), Param: param,
		})
	}
	if p.Stale(point, rep, attempt) {
		cf.StaleSNMP = true
		add("switch", SNMPStale, 0)
	}
	if p.roll(p.PWrap, SNMPWrap, point, r) {
		cf.WrapPreload = true
		add("switch", SNMPWrap, 0)
	}
	if frac, stall := p.Gen(point, rep, attempt); frac > 0 {
		cf.Underrun = frac
		cf.Stall = stall
		if stall {
			add("gen", GenStall, frac)
		} else {
			add("gen", GenUnderrun, frac)
		}
	}
	for _, name := range sniffers {
		sf := p.Sniffer(name, point, rep, attempt)
		if sf == (SnifferFaults{}) {
			continue
		}
		if cf.Sniffers == nil {
			cf.Sniffers = make(map[string]SnifferFaults, len(sniffers))
		}
		cf.Sniffers[name] = sf
		switch {
		case sf.Dead:
			add(name, SnifferDead, 0)
		case sf.Hang:
			add(name, SnifferHang, 0)
		case sf.Crash:
			add(name, SnifferCrash, 0)
		}
		if sf.LegLoss > 0 {
			add(name, SplitterLegLoss, sf.LegLoss)
		}
		if sf.TruncateUsage {
			add(name, UsageTruncated, 0)
		}
	}
	return cf
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
// — the per-cell form the parallel sweep engine uses, where every
// (system, rate, repetition) cell is one independent sniffer run.
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
		sf.LegSeed = p.LegSeed(name, point, rep)
	}
	if p.roll(p.PTruncUsage, UsageTruncated, point, c, r, a) {
		sf.TruncateUsage = true
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
