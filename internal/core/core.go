// Package core implements the thesis's measurement methodology (Chapter 3):
// the four systems under test (swan, snipe, moorhen, flamingo), the
// workload definition, the measurement cycle (start capture and profiling,
// read the generator-side counters, generate, read counters, stop —
// repeated over data rates and repetitions), and the aggregation of
// capturing rate and CPU usage.
package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/arch"
	"repro/internal/capture"
	"repro/internal/dist"
	"repro/internal/pktgen"
	"repro/internal/trace"
)

// FlamingoFriction is the kernel-cost factor of the FreeBSD/Xeon
// combination. The thesis observes — without dissecting the cause — that
// flamingo "is often losing more packets than the other systems"; this
// factor encodes that observation as extra per-packet kernel cost (FreeBSD
// 5.x interrupt handling on Netburst/ServerWorks was notoriously
// expensive: Giant-locked interrupt threads, slow APIC access).
const FlamingoFriction = 1.9

// Swan returns the Linux / dual AMD Opteron system.
func Swan() capture.Config {
	return capture.Config{Name: "swan", Arch: arch.Opteron244(), OS: capture.Linux}
}

// Snipe returns the Linux / dual Intel Xeon system.
func Snipe() capture.Config {
	return capture.Config{Name: "snipe", Arch: arch.Xeon306(), OS: capture.Linux}
}

// Moorhen returns the FreeBSD 5.4 / dual AMD Opteron system.
func Moorhen() capture.Config {
	return capture.Config{Name: "moorhen", Arch: arch.Opteron244(), OS: capture.FreeBSD}
}

// Flamingo returns the FreeBSD 5.4 / dual Intel Xeon system.
func Flamingo() capture.Config {
	return capture.Config{
		Name: "flamingo", Arch: arch.Xeon306(), OS: capture.FreeBSD,
		KernelCostFactor: FlamingoFriction,
	}
}

// Sniffers returns the four systems in the thesis's plotting order.
func Sniffers() []capture.Config {
	return []capture.Config{Swan(), Snipe(), Moorhen(), Flamingo()}
}

// Heron returns the modern RSS + NAPI system: a Xeon Scalable host
// running the stock Linux receive path spread over multiple hardware
// queues — the 2005 architecture scaled up rather than redesigned.
func Heron() capture.Config {
	return capture.Config{
		Name: "heron", Arch: arch.XeonScalable(), OS: capture.Linux,
		Stack: capture.StackRSS, NumCPUs: 8, RXRings: 4,
		BufferBytes: 8 << 20,
	}
}

// Osprey returns the poll-mode system: an EPYC Rome host dedicating
// busy-spinning cores to the NIC rings, DPDK style — zero interrupt
// cost bought with always-100% CPUs.
func Osprey() capture.Config {
	return capture.Config{
		Name: "osprey", Arch: arch.EpycRome(), OS: capture.Linux,
		Stack: capture.StackPoll, NumCPUs: 8, RXRings: 4,
	}
}

// Kite returns the AF_XDP-style zero-copy system: the same Xeon
// Scalable host as heron, but frames are redirected from a shared UMEM
// pool into per-socket rings with no per-packet copy and batched
// wakeups.
func Kite() capture.Config {
	return capture.Config{
		Name: "kite", Arch: arch.XeonScalable(), OS: capture.Linux,
		Stack: capture.StackZeroCopy, NumCPUs: 8, RXRings: 4,
	}
}

// ModernSniffers returns the three modern-stack systems in plotting
// order.
func ModernSniffers() []capture.Config {
	return []capture.Config{Heron(), Osprey(), Kite()}
}

// Workload describes the generated packet train of one measurement run.
type Workload struct {
	// Packets per run. The thesis generates 1 000 000 per run; smaller
	// values time-compress the experiment (see Scale).
	Packets int
	// TargetRate is the wire data rate in bits/s (0 = unpaced line rate).
	TargetRate float64
	// Seed selects the deterministic packet train; repetitions use
	// different seeds.
	Seed uint64
	// FixedSize, when nonzero, disables the size distribution and
	// generates fixed-size frames (classic pktgen mode).
	FixedSize int
	// Flows, when > 1, cycles the generated UDP source port so the train
	// carries this many distinct 5-tuple flows (the measurement default is
	// a single flow — fixed addresses and ports, only the source MAC
	// cycles). Flow-level experiments need real flow diversity; 0 keeps
	// the train byte-identical to the thesis setup.
	Flows int
	// LineRate, when nonzero, overrides the generator's medium bit rate
	// (default 1 Gbit/s) — the modern sweeps run 10/40/100G links.
	LineRate float64
	// GenCostNS, when nonzero, overrides the generating host's per-packet
	// cost (default 1250 ns — a 2005 sender cannot source much beyond
	// 1 GbE; a modern hardware generator is set to a few tens of ns).
	GenCostNS float64
}

// Rep returns the workload of repetition rep of a point: the thesis
// repeats each point with distinct packet trains, so successive
// repetitions' seeds are spaced apart by a fixed stride.
func (w Workload) Rep(rep int) Workload {
	w.Seed += uint64(rep) * 7919
	return w
}

// scale is the time-compression factor of a run relative to the thesis's
// 1M-packet runs. Buffer capacities and OS time constants scale linearly
// with run length so that a 50k-packet run reproduces the drop dynamics of
// a 1M-packet run exactly (every overflow condition in the model is a
// product of rate × time versus bytes).
func (w Workload) scale() float64 {
	s := float64(w.Packets) / 1_000_000
	if s > 1 {
		s = 1
	}
	if s < 1.0/5000 {
		s = 1.0 / 5000
	}
	return s
}

// mwnDistribution is the measurement distribution, built once.
var mwnDistribution = func() *dist.Distribution {
	d, err := dist.Build(trace.MWNCounts(1_000_000), dist.DefaultParams())
	if err != nil {
		panic(err)
	}
	return d
}()

// Generator builds the enhanced pktgen instance for a workload.
func (w Workload) Generator() *pktgen.Generator {
	g := pktgen.New(w.Seed)
	g.Config.Count = w.Packets
	g.Config.TargetRate = w.TargetRate
	if w.Flows > 1 {
		g.Config.UDPSrcPortCount = w.Flows
	}
	if w.LineRate > 0 {
		g.Config.LineRate = w.LineRate
	}
	if w.GenCostNS > 0 {
		g.Config.PerPacketCostNS = w.GenCostNS
	}
	if w.FixedSize > 0 {
		g.Config.PktSize = w.FixedSize
	} else {
		g.LoadDistribution(mwnDistribution)
	}
	return g
}

// Prepare time-compresses a system configuration for the workload and
// fills in the buffer defaults if unset. Scaling is multiplicative, so
// Prepare marks the config and is idempotent: preparing an already
// prepared config returns it unchanged instead of compressing twice.
func Prepare(cfg capture.Config, w Workload) capture.Config {
	if cfg.Prepared {
		return cfg
	}
	cfg.Prepared = true
	if cfg.Costs == (capture.Costs{}) {
		cfg.Costs = capture.DefaultCosts()
	}
	s := w.scale()
	if cfg.BufferBytes == 0 {
		if cfg.OS == capture.Linux {
			cfg.BufferBytes = capture.DefaultLinuxRcvbuf
		} else {
			cfg.BufferBytes = capture.DefaultBSDBuffer
		}
	}
	cfg.BufferBytes = scaleBytes(cfg.BufferBytes, s)
	cfg.Costs.HousekeepNS *= s
	cfg.Costs.HousekeepPeriodNS *= s
	cfg.Costs.TimesliceNS *= s
	cfg.Costs.ReadTimeoutNS *= s
	cfg.Costs.PipeBufBytes = scaleBytes(cfg.Costs.PipeBufBytes, s)
	cfg.Costs.WorkerQueueBytes = scaleBytes(cfg.Costs.WorkerQueueBytes, s)
	cfg.Costs.NICFifoBytes = scaleBytes(cfg.Costs.NICFifoBytes, s)
	if cfg.DiskQueueBytes == 0 {
		cfg.DiskQueueBytes = scaleBytes(32<<20, s)
	}
	return cfg
}

// scaleBytes compresses a buffer capacity, with a floor so tiny runs keep
// a usable buffer. Zero means "feature disabled / unset" and must survive
// scaling as zero rather than gaining the floor capacity.
func scaleBytes(b int, s float64) int {
	if b <= 0 {
		return b
	}
	v := int(float64(b) * s)
	if v < 4096 {
		v = 4096
	}
	return v
}

// RunOnce executes one measurement of one system: build the system, feed
// the generated train, return statistics.
func RunOnce(cfg capture.Config, w Workload) capture.Stats {
	sys := capture.NewSystem(Prepare(cfg, w))
	return sys.Run(w.Generator())
}

// Point is one plotted point: a system at one x value, aggregated over
// repetitions.
type Point struct {
	System    string
	X         float64 // data rate in Mbit/s (or buffer kB, etc.)
	Rate      float64 // average capturing rate, percent
	RateMin   float64
	RateMax   float64
	Worst     float64 // per-app worst/avg/best (multi-app plots)
	Avg       float64
	Best      float64
	CPU       float64 // average CPU usage, percent
	Generated uint64
	// Drops is the drop-cause ledger merged over the repetitions of this
	// point (an array-backed value, so Point stays comparable).
	Drops capture.Ledger
	// Truncated counts repetitions that hit the simulation safety cap.
	Truncated int

	// Chaos bookkeeping, filled under fault supervision (resilient.go);
	// all zero on clean runs.
	//
	// Attempts is the total number of cycle attempts spent on this point
	// (reps on a clean run; more when faults forced retries). Quarantined
	// counts repetitions that never produced a valid run within the retry
	// budget; Rejected counts valid repetitions the MAD outlier rejection
	// discarded. Degraded marks a point whose accepted data is impaired:
	// a degraded splitter leg was booked into it, or no repetition
	// survived at all (the rate fields are then zero, not measured).
	// FaultLog is the compact per-point fault history ("rep0.1
	// swan:sniffer-hang; …"); a string so Point stays comparable.
	Attempts    int
	Quarantined int
	Rejected    int
	Degraded    bool
	FaultLog    string
}

// Series is the result of sweeping one system over x values.
type Series struct {
	System string
	Points []Point
}

// aggregatePoint folds the per-repetition statistics of one cell column
// into a plotted point. The runs arrive in repetition order, so the
// floating-point accumulation is deterministic.
func aggregatePoint(system string, runs []capture.Stats) Point {
	pt := Point{System: system, RateMin: math.Inf(1), RateMax: math.Inf(-1)}
	if len(runs) == 0 {
		pt.RateMin, pt.RateMax = 0, 0
		return pt
	}
	var worstS, avgS, bestS, cpuS float64
	for _, st := range runs {
		r := st.CaptureRate()
		pt.Rate += r
		if r < pt.RateMin {
			pt.RateMin = r
		}
		if r > pt.RateMax {
			pt.RateMax = r
		}
		wo, av, be := st.AppRates()
		worstS += wo
		avgS += av
		bestS += be
		cpuS += st.CPUUsage()
		pt.Generated = st.Generated
		pt.Drops.Merge(st.Ledger)
		if st.Truncated {
			pt.Truncated++
		}
	}
	n := float64(len(runs))
	pt.Rate /= n
	pt.Worst, pt.Avg, pt.Best = worstS/n, avgS/n, bestS/n
	pt.CPU = cpuS / n
	return pt
}

// AggregatePoint folds the per-repetition statistics of one measurement
// point at x into a plotted Point (capture rate, CPU, drop-cause ledger).
func AggregatePoint(system string, x float64, runs []capture.Stats) Point {
	pt := aggregatePoint(system, runs)
	pt.X = x
	return pt
}

// FormatTable renders series the way the thesis plots read: one row per x
// value, one rate/CPU column pair per system. Series of unequal length are
// rendered with blanks for the missing points instead of panicking.
func FormatTable(title string, series []Series) string {
	var out strings.Builder
	fmt.Fprintf(&out, "# %s\n", title)
	if len(series) == 0 {
		return out.String()
	}
	out.WriteString("# x")
	rows := 0
	for _, s := range series {
		fmt.Fprintf(&out, "\t%s:rate%%\t%s:cpu%%", s.System, s.System)
		if len(s.Points) > rows {
			rows = len(s.Points)
		}
	}
	out.WriteByte('\n')
	for i := 0; i < rows; i++ {
		// The x value comes from the first series long enough to have
		// this row.
		for _, s := range series {
			if i < len(s.Points) {
				out.WriteString(FormatRate(s.Points[i].X))
				break
			}
		}
		for _, s := range series {
			if i < len(s.Points) {
				p := s.Points[i]
				fmt.Fprintf(&out, "\t%6.2f\t%6.2f", p.Rate, p.CPU)
			} else {
				out.WriteString("\t     -\t     -")
			}
		}
		out.WriteByte('\n')
	}
	return out.String()
}

// FormatRate renders one x-axis data rate in Mbit/s for a table column.
// Sub-gigabit rates keep the thesis's plain integer form (byte-identical
// to the historical output); whole multiples of 1000 Mbit/s compress to
// "10G"-style labels so multi-gigabit sweeps neither lose precision nor
// blow up the column width; anything else prints exactly.
func FormatRate(x float64) string {
	if x == math.Trunc(x) {
		if x >= 1000 && math.Mod(x, 1000) == 0 {
			return fmt.Sprintf("%.0fG", x/1000)
		}
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%g", x)
}

// FormatWhy renders the drop-cause breakdown of a sweep: one line per
// (x, system) point listing the per-cause packet counts summed over the
// point's repetitions — the `experiment -why` companion of FormatTable.
func FormatWhy(series []Series) string {
	var out strings.Builder
	out.WriteString("# why: drop causes per point (packets summed over repetitions)\n")
	out.WriteString("# x\tsystem\tdropped\tby-cause\n")
	for _, s := range series {
		for _, p := range s.Points {
			total, _ := p.Drops.Total()
			fmt.Fprintf(&out, "%.0f\t%s\t%d\t", p.X, s.System, total)
			if total == 0 {
				out.WriteByte('-')
			} else {
				first := true
				for _, c := range capture.CausesByName() {
					d := p.Drops.Drops[c]
					if d.Packets == 0 {
						continue
					}
					if !first {
						out.WriteByte(' ')
					}
					first = false
					fmt.Fprintf(&out, "%s=%d", c, d.Packets)
				}
			}
			if p.Truncated > 0 {
				fmt.Fprintf(&out, " [truncated x%d]", p.Truncated)
			}
			out.WriteByte('\n')
		}
	}
	return out.String()
}
