package capture

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// CapturedTotal sums the captured packets of every application.
func (s Stats) CapturedTotal() uint64 {
	var n uint64
	for _, c := range s.AppCaptured {
		n += c
	}
	return n
}

// ShedTotal sums the packets every application's sampling policy
// deliberately declined (zero without a policy).
func (s Stats) ShedTotal() uint64 {
	var n uint64
	for _, c := range s.AppShed {
		n += c
	}
	return n
}

// CheckConservation verifies that every offered packet is accounted for:
// per application, Generated == Captured + shared drops (before the
// fan-out, each costing every application the packet) + per-app drops.
// Summed over the napps applications:
//
//	napps × Generated == Σ Captured + perApp drops + napps × shared drops
//
// Every drop count comes from the ledger, which the stacks write at the
// line where they drop. A nil return means the books balance.
func (s Stats) CheckConservation() error {
	napps := uint64(len(s.AppCaptured))
	if napps == 0 {
		return nil
	}
	lhs := napps * s.Generated
	rhs := s.CapturedTotal() + s.Ledger.PerAppPackets() + napps*s.Ledger.SharedPackets()
	if lhs != rhs {
		return fmt.Errorf("capture: conservation violated: %d apps × %d generated = %d, "+
			"but captured %d + per-app drops %d + %d × shared drops %d = %d",
			napps, s.Generated, lhs, s.CapturedTotal(), s.Ledger.PerAppPackets(),
			napps, s.Ledger.SharedPackets(), rhs)
	}
	return nil
}

// Explain renders the run's loss and CPU accounting as the textual
// breakdown the thesis produces by hand from kernprof/cpusage output:
// where the packets went, which buffers ran hot, and what each CPU spent
// its time on. The output is deterministic for a deterministic run.
func (s Stats) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "generated %d pkts; captured %d (%.2f%%); CPU %.1f%% of %d CPU(s) over %.3f s\n",
		s.Generated, s.CapturedTotal(), s.CaptureRate(), s.CPUUsage(), s.CPUCount,
		float64(s.WallTime)/1e9)
	if s.Truncated {
		b.WriteString("TRUNCATED: the run hit the simulation safety cap; in-flight packets are booked as 'abandoned'\n")
	}

	pkts, bytes := s.Ledger.Total()
	if pkts == 0 {
		b.WriteString("drops: none\n")
	} else {
		fmt.Fprintf(&b, "drops by cause (%d pkts, %d bytes total):\n", pkts, bytes)
		fmt.Fprintf(&b, "  %-12s %10s %12s %12s %12s\n", "cause", "packets", "bytes", "first-ms", "last-ms")
		for _, c := range CausesByName() {
			d := s.Ledger.Drops[c]
			if d.Packets == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-12s %10d %12d %12.3f %12.3f\n",
				c.String(), d.Packets, d.Bytes,
				float64(d.First)/1e6, float64(d.Last)/1e6)
		}
		if shed := s.Ledger.ShedPackets(); shed > 0 {
			fmt.Fprintf(&b, "  of which %d pkts were shed deliberately by the %s policy (shed != lost)\n",
				shed, s.PolicyName)
		}
	}

	if len(s.Gauges) > 0 {
		b.WriteString("buffers (high-water / capacity, overflow episodes):\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(&b, "  %-12s %10d / %-10d %4d\n", g.Name, g.HighWater, g.Capacity, g.Episodes)
		}
	}

	if len(s.BusyByCPU) > 0 && s.WallTime > 0 {
		b.WriteString("cpu busy over the generation window (% of wall, by class):\n")
		for i, by := range s.BusyByCPU {
			fmt.Fprintf(&b, "  cpu%d:", i)
			for p := sim.Prio(0); p < sim.NumPrio; p++ {
				fmt.Fprintf(&b, " %s %.1f", p, float64(by[p])/float64(s.WallTime)*100)
			}
			b.WriteByte('\n')
		}
	}

	if err := s.CheckConservation(); err != nil {
		fmt.Fprintf(&b, "conservation: VIOLATED: %v\n", err)
	} else {
		napps := len(s.AppCaptured)
		fmt.Fprintf(&b, "conservation: ok (%d app(s): %d×%d == %d captured + %d per-app + %d×%d shared drops)\n",
			napps, napps, s.Generated, s.CapturedTotal(),
			s.Ledger.PerAppPackets(), napps, s.Ledger.SharedPackets())
	}
	return b.String()
}
