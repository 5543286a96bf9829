package experiments

import (
	"fmt"
	"strings"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/trace"
)

// extensions returns the experiments beyond the thesis's own evaluation:
// its §7.2 future-work items and ablations of the model's design choices.
func extensions() []Experiment {
	return []Experiment{
		sweepExpt("ext-pfring", "§7.2 / [Der05]", "ring-buffer capturing stack (PF_RING-style) on Linux",
			"stock vs PACKET_MMAP vs ring stack (Linux, single CPU)", pfRingConfigs),
		sweepExpt("ext-bsdmmap", "§7.2", "memory-mapped (zero-copy read) libpcap for FreeBSD",
			"FreeBSD stock vs memory-mapped read (single CPU)", bsdMmapConfigs),
		workersExpt(),
		tenGbEExpt(),
		productionExpt(),
		moderationExpt(),
		shedExpt(),
		housekeepingExpt(),
		contentionExpt(),
		modernExpt(),
	}
}

// pfRingConfigs compares the stock Linux stack, PACKET_MMAP, and the
// ring-buffer stack on the Linux systems at single-CPU (where the Linux
// stack hurts most).
func pfRingConfigs() []capture.Config {
	var cfgs []capture.Config
	for _, mk := range []func() capture.Config{core.Swan, core.Snipe} {
		stock := bigBuffers(single(mk()))
		mmap := stock
		mmap.Name += "-mmap"
		mmap.MmapPatch = true
		ring := stock
		ring.Name += "-ring"
		ring.PFRing = true
		cfgs = append(cfgs, stock, mmap, ring)
	}
	return cfgs
}

// bsdMmapConfigs evaluates the zero-copy read for FreeBSD the thesis
// proposes: "since FreeBSD seems to perform better than Linux in general,
// this could boost the capturing rates and reduce the CPU load" (§7.2).
func bsdMmapConfigs() []capture.Config {
	return variants("-mmap", mmapPatch, bigBuffers(single(core.Moorhen())), bigBuffers(single(core.Flamingo())))
}

// pairRow renders a with/without row: x, the base system, and the
// capturing rates of the base and its variant.
func pairRow(out *strings.Builder, x float64, system string, sts []capture.Stats) {
	fmt.Fprintf(out, "%.0f\t%s\t%6.2f\t%6.2f\n", x, system, sts[0].CaptureRate(), sts[1].CaptureRate())
}

// workersExpt runs the heavy zlib-3 analysis load inline vs on two worker
// threads — the [DV04] approach of spreading analysis across processors.
func workersExpt() Experiment {
	layout := func(o Options) core.Layout {
		bases := variants("-workers", func(cfg capture.Config) capture.Config {
			cfg.Load.Workers = 2
			return cfg
		}, gzwrite(3)(dual(core.Swan())), gzwrite(3)(dual(core.Moorhen())))
		return core.RateLayout(bases, o.Rates, core.Workload{Packets: o.Packets, Seed: o.Seed}, 1)
	}
	return cellExpt("ext-workers", "§7.2 / [DV04]", "multithreaded packet analysis on multiprocessors",
		"# zlib-3 analysis: inline reader vs 2 worker threads, dual CPU\n# rate\tsystem\tinline%\tworkers%\n",
		layout, 2, pairRow)
}

// tenGbEExpt scales the link to 10 Gbit/s (and assumes a modern generator
// host): "the most commonly interest would be the evaluation of 10 Gigabit
// Ethernet" (§7.2). The 2005 systems drown — the question is how fast.
func tenGbEExpt() Experiment {
	layout := func(o Options) core.Layout {
		// GenCostNS: a generator host of the 10GbE era.
		w := core.Workload{Packets: o.Packets, Seed: o.Seed, LineRate: 10e9, GenCostNS: 120}
		return core.RateLayout(systems(bigBuffers, dual), []float64{1000, 2000, 4000, 8000}, w, 1)
	}
	return cellExpt("ext-10gbe", "§7.2", "outlook: the same systems against 10 Gigabit Ethernet",
		"# 10GbE outlook: capture rate at multi-gigabit rates, dual CPU, big buffers\n# rate-Mbit\tsystem\trate%\tcpu%\n",
		layout, 1, func(out *strings.Builder, x float64, system string, sts []capture.Stats) {
			fmt.Fprintf(out, "%.0f\t%s\t%6.2f\t%6.2f\n", x, system, sts[0].CaptureRate(), sts[0].CPUUsage())
		})
}

// housekeepingExpt removes the periodic OS housekeeping stalls: the
// default-buffer drop onset (Figure 6.2) should move far to the right,
// demonstrating which mechanism produces it in the model.
func housekeepingExpt() Experiment {
	layout := func(o Options) core.Layout {
		bases := variants("-no-housekeeping", func(cfg capture.Config) capture.Config {
			cfg.Costs = capture.DefaultCosts()
			cfg.Costs.HousekeepNS = 0
			return cfg
		}, single(core.Swan()))
		return core.RateLayout(bases, o.Rates, core.Workload{Packets: o.Packets, Seed: o.Seed}, 1)
	}
	return cellExpt("abl-housekeeping", "model ablation", "default-buffer drop onset with and without OS housekeeping stalls",
		"# swan, default buffers, single CPU: with vs without housekeeping stalls\n# rate\twith%\twithout%\n",
		layout, 2, func(out *strings.Builder, x float64, _ string, sts []capture.Stats) {
			fmt.Fprintf(out, "%.0f\t%6.2f\t%6.2f\n", x, sts[0].CaptureRate(), sts[1].CaptureRate())
		})
}

// contentionExpt disables the Xeon's shared-FSB contention: under memcpy
// load the dual-CPU Xeon systems should visibly improve, quantifying what
// the §2.4 architecture difference costs.
func contentionExpt() Experiment {
	layout := func(o Options) core.Layout {
		bases := variants("-uncontended", func(cfg capture.Config) capture.Config {
			cfg.Arch.MemContention = 1.0
			return cfg
		}, memcpy(50)(dual(core.Snipe())), memcpy(50)(dual(core.Flamingo())))
		return core.RateLayout(bases, o.Rates, core.Workload{Packets: o.Packets, Seed: o.Seed}, 1)
	}
	return cellExpt("abl-contention", "model ablation", "Xeon front-side-bus contention on vs off under copy load",
		"# snipe + flamingo, memcpy-50, dual CPU: FSB contention on vs off\n# rate\tsystem\tcontended%\tuncontended%\n",
		layout, 2, pairRow)
}

// productionRate is the offered rate at hour of the documented diurnal
// curve (220 Mbit/s at night to 1200 Mbit/s at the afternoon peak),
// clamped to the GigE monitoring link, in bits/s.
func productionRate(hour float64) float64 {
	rate := trace.DiurnalRate(hour)
	if rate > 1000e6 {
		rate = 1000e6 // the monitoring port is a single GigE fiber
	}
	return rate
}

// productionExpt models the systems' day job (§2.3/§4.1.4): capturing the
// MWN uplink around the clock with an NIDS-like consumer — the Figure 6.5
// filter, per-flow accounting, and 76-byte header traces to disk — while
// the offered rate follows the diurnal curve. The x axis is the hour, so
// the two clamped afternoon hours stay distinct points.
func productionExpt() Experiment {
	layout := func(o Options) core.Layout {
		bases := systems(bigBuffers, dual, func(cfg capture.Config) capture.Config {
			cfg.Filter = filter.MustCompile(filter.ReferenceFilterExpr, 1515)
			cfg.Load.FlowTrack = true
			cfg.Load.WriteSnapLen = 76
			return cfg
		})
		hours := []float64{0, 3, 6, 9, 12, 15, 18, 21}
		return axisCells(hours, core.PointKey, func(hour float64) []core.Cell {
			return column(bases, core.Workload{Packets: o.Packets, Seed: o.Seed, TargetRate: productionRate(hour)})
		})
	}
	return cellExpt("ext-production", "§2.3/§4.1.4", "a production day on the MWN uplink (filter + flows + header traces)",
		"# production day: NIDS filter + flow tracking + header traces, dual CPU, big buffers\n# hour\trate-Mbit\tswan%\tsnipe%\tmoorhen%\tflamingo%\n",
		layout, 4, func(out *strings.Builder, hour float64, _ string, sts []capture.Stats) {
			fmt.Fprintf(out, "%02.0f\t%.0f", hour, productionRate(hour)/1e6)
			for _, st := range sts {
				fmt.Fprintf(out, "\t%6.2f", st.CaptureRate())
			}
			out.WriteByte('\n')
		})
}

// shedFlows is the flow diversity of the shedding experiment's train: the
// generator cycles this many UDP source ports so the flow policy has real
// flows to keep or shed (the measurement-default train is a single
// 5-tuple — fixed addresses and ports).
const shedFlows = 64

// shedPolicies is the policy axis of the shedding sweep: the unpoliced
// baseline against one representative of each policy family.
var shedPolicies = []string{"none", "uniform:4", "flow:4", "adaptive"}

// shedConfigs returns the shedding sweep's systems: the two capturing
// stacks (Linux swan, FreeBSD moorhen) at dual CPU with big buffers, at 1
// and 4 applications, each under the four policies. The series name
// encodes app count and policy ("moorhen-a4-adaptive"); the baseline
// counts flows too, so flow coverage is comparable across the policy axis.
func shedConfigs() []capture.Config {
	var cfgs []capture.Config
	for _, napps := range []int{1, 4} {
		for _, pol := range shedPolicies {
			spec, err := capture.ParsePolicy(pol)
			if err != nil {
				panic(err)
			}
			for _, mk := range []func() capture.Config{core.Swan, core.Moorhen} {
				// The fig6.10 memcpy analysis load: shedding relieves the
				// *application's* per-packet work, so without analysis cost
				// there would be nothing for the adaptive controller to win.
				cfg := memcpy(50)(dual(mk()))
				cfg.NumApps = napps
				cfg.Policy = spec
				cfg.CountFlows = true
				cfg.Name = fmt.Sprintf("%s-a%d-%s", cfg.Name, napps, pol)
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// shedExpt builds the ext-shedding experiment: accuracy-vs-load curves of
// the three sampling policies against the unpoliced baseline — under
// overload an arbitrary tail-drop loses arbitrary packets, while a policy
// trades completeness for a *chosen* subset (whole flows, an even 1-in-N,
// or whatever the queues leave room for). Columns: per-app packet accuracy
// (captured/generated), flow coverage (distinct flows seen per app /
// flows in the train), deliberately shed share, and Jain's fairness index
// over the per-app capture counts. The cells run through the cell engine
// like any other per-cell sweep, so -json, SSE and -chaos all work.
func shedExpt() Experiment {
	layout := func(o Options) core.Layout {
		return core.RateLayout(shedConfigs(), o.Rates, core.Workload{Packets: o.Packets, Seed: o.Seed, Flows: shedFlows}, 1)
	}
	header := "# load shedding: packet/flow accuracy, shed share and fairness by policy\n" +
		fmt.Sprintf("# swan + moorhen, dual CPU, big buffers, %d flows per train; shed != lost (see -why)\n", shedFlows) +
		"# rate\tsystem\tpkt%\tflow%\tshed%\tfair\n"
	return cellExpt("ext-shedding", "§7.2 / [BDSW10]",
		"adaptive load-aware sampling and load shedding under overload", header, layout, 1,
		func(out *strings.Builder, x float64, system string, sts []capture.Stats) {
			st := sts[0]
			napps := len(st.AppCaptured)
			var flowPct float64
			for _, f := range st.AppFlows {
				flowPct += float64(f)
			}
			if napps > 0 {
				flowPct = flowPct / float64(napps) / shedFlows * 100
			}
			shedPct := 0.0
			if st.Generated > 0 && napps > 0 {
				shedPct = float64(st.ShedTotal()) / float64(uint64(napps)*st.Generated) * 100
			}
			fmt.Fprintf(out, "%.0f\t%s\t%6.2f\t%6.2f\t%6.2f\t%5.3f\n",
				x, system, st.CaptureRate(), flowPct, shedPct, st.Fairness())
		})
}

// modernRates is the fixed data-rate axis of the modern-stack sweep, in
// Mbit/s: 2/5/10 G (where the 2005 bottlenecks have evaporated), 25/40 G
// (where per-packet software cost returns as the wall), and 100 G (where
// on some hosts the PCIe/memory bus, not the CPU, binds first). The axis
// is part of what the experiment *is* — it ignores -rates, whose default
// sub-gigabit sweep is meaningless here.
var modernRates = []float64{2000, 5000, 10000, 25000, 40000, 100000}

// modernFlows is the flow diversity of the modern trains: RSS spreads
// load by hashing 5-tuples, so the single-flow measurement default would
// degenerate every multi-queue NIC to one ring.
const modernFlows = 256

// modernGenCostNS replaces the 2005 sender's 1250 ns per-packet cost: the
// modern sweeps assume a hardware-class traffic generator that can
// actually source 100G.
const modernGenCostNS = 20

// modernConfigs returns the modern sweep's systems: the three receive
// disciplines (heron = RSS+NAPI, osprey = poll mode, kite = AF_XDP-style
// zero copy) crossed with the ring-count axis and 1 vs 4 capturing
// applications. Names encode the point ("kite-r4-a1").
func modernConfigs(rings []int) []capture.Config {
	if len(rings) == 0 {
		rings = []int{2, 4}
	}
	var cfgs []capture.Config
	for _, napps := range []int{1, 4} {
		for _, nr := range rings {
			for _, mk := range []func() capture.Config{core.Heron, core.Osprey, core.Kite} {
				cfg := mk()
				cfg.RXRings = nr
				cfg.NumApps = napps
				cfg.Name = fmt.Sprintf("%s-r%d-a%d", cfg.Name, nr, napps)
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// modernExpt builds the ext-modern experiment: the thesis's question —
// which packets survive, at what CPU cost, and which buffer overflows —
// re-asked of the receive paths that replaced the 2005 stacks at
// 10/40/100G. Columns: capturing rate, CPU usage, and the NIC-level drop
// share (pcie-bus + rss-ring + poll-budget), whose causes separate a bus
// wall from a CPU wall (see -why for the full ledger). The cells run
// through the cell engine, so -json, SSE, -chaos, -policy, journaling and
// dispatch all compose like any other per-cell sweep.
func modernExpt() Experiment {
	layout := func(o Options) core.Layout {
		w := core.Workload{Packets: o.Packets, Seed: o.Seed,
			Flows: modernFlows, LineRate: 100e9, GenCostNS: modernGenCostNS}
		return core.RateLayout(o.applyPolicy(modernConfigs(o.Rings)), modernRates, w, 1)
	}
	header := "# modern capture stacks at 10/40/100G: RSS+NAPI (heron), poll mode (osprey), zero copy (kite)\n" +
		fmt.Sprintf("# 8-core hosts, rN = RX rings, aN = capturing apps, %d flows per train\n", modernFlows) +
		"# rate\tsystem\trate%\tcpu%\tnicdrop%\n"
	return cellExpt("ext-modern", "§7.2 outlook",
		"modern capture stacks: RSS multi-queue, poll mode, zero copy at 10/40/100G", header, layout, 1,
		func(out *strings.Builder, x float64, system string, sts []capture.Stats) {
			st := sts[0]
			nicPct := 0.0
			if st.Generated > 0 {
				nicPct = float64(st.Ledger.NICPackets()) / float64(st.Generated) * 100
			}
			fmt.Fprintf(out, "%s\t%s\t%6.2f\t%6.2f\t%6.2f\n",
				core.FormatRate(x), system, st.CaptureRate(), st.CPUUsage(), nicPct)
		})
}

// moderationExpt quantifies the §2.2.1 trade-off: interrupt moderation
// lowers the interrupt CPU share but degrades packet timestamps — "the
// timestamps of most packets and along with this the inter-packet gaps are
// not correct", with whole batches sharing one stamp.
func moderationExpt() Experiment {
	layout := func(o Options) core.Layout {
		w := core.Workload{Packets: o.Packets, Seed: o.Seed, TargetRate: 700e6}
		delaysUS := []float64{0, 20, 50, 100, 250}
		return axisCells(delaysUS, core.PointKey, func(delayUS float64) []core.Cell {
			cfg := bigBuffers(dual(core.Moorhen()))
			cfg.Costs = capture.DefaultCosts()
			cfg.Costs.ModerationDelayNS = delayUS * 1e3
			return []core.Cell{{Cfg: cfg, W: w}}
		})
	}
	return cellExpt("ext-moderation", "§2.2.1", "interrupt moderation: CPU relief vs timestamp accuracy",
		"# interrupt moderation on moorhen at 700 Mbit/s, dual CPU\n# delay-us\trate%\tintr-cpu%\tts-err-mean-us\tts-ties%\n",
		layout, 1, func(out *strings.Builder, delayUS float64, _ string, sts []capture.Stats) {
			st := sts[0]
			intrPct := 0.0
			if st.WallTime > 0 {
				intrPct = float64(st.BusyByCls[0]) / float64(st.WallTime) / float64(st.CPUCount) * 100
			}
			ties := 0.0
			if st.Stamped > 0 {
				ties = float64(st.TsTies) / float64(st.Stamped) * 100
			}
			fmt.Fprintf(out, "%.0f\t%6.2f\t%6.2f\t%8.2f\t%6.2f\n",
				delayUS, st.CaptureRate(), intrPct, st.TsErrMeanUS(), ties)
		})
}
