// Package experiments defines one runnable experiment per table and figure
// of the thesis's evaluation (Chapters 4 and 6 plus Appendix B), maps each
// to the modules that implement it, and renders the same series the thesis
// plots. See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/filter"
	"repro/internal/pktgen"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options control experiment fidelity: more packets and repetitions cost
// time but tighten the results. Defaults reproduce the shapes quickly.
type Options struct {
	Packets int       // packets per run (thesis: 1 000 000)
	Reps    int       // repetitions per point (thesis: 7)
	Seed    uint64    // base seed
	Rates   []float64 // data-rate sweep in Mbit/s (default 50..950 step 50)
	// Parallelism distributes the independent measurement cells of a sweep
	// over worker goroutines: 0 = serial, <0 = one worker per CPU, >0 =
	// exactly that many. Output is byte-identical for any value.
	Parallelism int
	// Why appends the per-point drop-cause breakdown (core.FormatWhy) to
	// the rendered table — the `experiment -why` flag.
	Why bool
	// Chaos, when nonzero, runs the sweeps' cells under fault supervision
	// with the seeded plan faults.DefaultPlan(Chaos) (core.Options.Chaos):
	// validation, bounded retry, quarantine, outlier rejection, graceful
	// degradation. The chaos bookkeeping is appended to tables
	// (core.FormatChaos) and carried in the NDJSON records. Zero keeps the
	// unsupervised, byte-identical output.
	Chaos uint64
	// Policy applies a sampling / load-shedding policy to every capturing
	// application of the sweeps (capture.ParsePolicy syntax) — the
	// `experiment -policy` flag. Empty means no policy and keeps every
	// output byte-identical to the unpoliced runs. A semantic knob: it
	// changes what the measurement cells compute and is part of the
	// campaign fingerprint. The policy-sweep experiment ext-shedding
	// ignores it (it sweeps the policies itself).
	Policy string
	// Rings is the RX ring-count axis of the modern-stack sweep
	// (ext-modern) — the `experiment -rings` flag. Empty means the
	// default {2, 4} and keeps the campaign fingerprint identical to
	// pre-ring journals (the field enters the fingerprint via omitempty,
	// like Policy). A semantic knob: it changes the swept cells.
	Rings []int

	// Ctx, when non-nil, lets a caller cancel a running experiment: the
	// worker pools drain (in-flight cells finish, nothing new starts) and
	// the experiment's output must be discarded. A runtime knob, not part
	// of the campaign fingerprint.
	Ctx context.Context
	// Journal, when non-nil, makes sweeps durable: completed cells are
	// recorded in the campaign write-ahead log as they finish and replayed
	// on a resumed run (see Campaign). A runtime knob, not part of the
	// campaign fingerprint.
	Journal core.CellJournal
	// Observer, when non-nil, receives the cell engine's live event feed
	// (cell completions, deterministic point aggregates, retry/quarantine
	// decisions) — the monitoring service and the streaming -json writer
	// attach here. A runtime knob, not part of the campaign fingerprint;
	// observation never changes a result.
	Observer core.Observer
	// Executor, when non-nil, hands the cells core.Run would run locally
	// to an external executor instead (core.Options.Executor) — the
	// dispatch coordinator leases them to remote workers. Replayed cells
	// never reach the executor, and the executor's results feed the same
	// journaling, observation, and fixed-order aggregation, so output
	// stays byte-identical to a local run. A runtime knob, not part of
	// the campaign fingerprint. Ignored under -chaos: fault injection
	// works through process-local hooks that cannot be dispatched.
	Executor core.CellExecutor
}

// ctx resolves the cancellation context (nil means "never cancelled").
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// engine builds the cell engine's options for experiment: the worker
// count, the campaign journal, the observer and the executor, and the
// fault plan of the -chaos seed.
func (o Options) engine(experiment string) core.Options {
	co := core.Options{
		Workers: o.Parallelism, Experiment: experiment,
		Journal: o.Journal, Observer: o.Observer, Executor: o.Executor,
	}
	if o.Chaos != 0 {
		co.Chaos = faults.DefaultPlan(o.Chaos)
	}
	return co
}

// companions renders the tables that follow an experiment's main table:
// the per-point drop causes under -why and the chaos bookkeeping under
// -chaos.
func (o Options) companions(series []core.Series) string {
	var out strings.Builder
	if o.Why {
		out.WriteString("\n" + core.FormatWhy(series))
	}
	if o.Chaos != 0 {
		out.WriteString("\n" + core.FormatChaos(series))
	}
	return out.String()
}

// applyPolicy stamps the -policy override onto sweep configs. An empty or
// "none" policy returns cfgs untouched (the same slice), so the default
// paths stay byte-identical. The CLI validates the spec string before any
// sweep runs; a malformed one reaching this point is a programming error.
func (o Options) applyPolicy(cfgs []capture.Config) []capture.Config {
	if o.Policy == "" {
		return cfgs
	}
	spec, err := capture.ParsePolicy(o.Policy)
	if err != nil {
		panic(err)
	}
	if !spec.Enabled() {
		return cfgs
	}
	out := make([]capture.Config, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Policy = spec
		out[i] = cfg
	}
	return out
}

func (o Options) withDefaults() Options {
	if o.Packets <= 0 {
		o.Packets = 40000
	}
	if o.Reps <= 0 {
		o.Reps = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Rates) == 0 {
		for r := 50.0; r <= 950; r += 50 {
			o.Rates = append(o.Rates, r)
		}
	}
	return o
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string // thesis plot id, e.g. "fig6.3-smp"
	Paper string // the figure/table in the thesis
	Title string
	Run   func(o Options) string
	// Series returns the experiment's measurement points in structured
	// form (for `experiment -json`); nil for experiments that have no
	// series shape (distribution plots, histograms).
	Series func(o Options) []core.Series
	// layout lays out a sweep experiment's cells under defaulted options:
	// what Run and Series measure, and what EnumerateCells lists. Nil
	// when Series is.
	layout func(o Options) core.Layout
}

// expt builds a text-only experiment (no structured series form).
func expt(id, paper, title string, run func(Options) string) Experiment {
	return Experiment{ID: id, Paper: paper, Title: title, Run: run}
}

// All returns every experiment: the thesis's tables and figures in thesis
// order, followed by the future-work extensions and model ablations
// (extensions.go).
func All() []Experiment {
	return append(thesisExperiments(), extensions()...)
}

func thesisExperiments() []Experiment {
	const rateTitle = "capturing rate and CPU usage vs data rate [Mbit/s]"
	return []Experiment{
		expt("fig4.1", "Figure 4.1", "packet size distribution of the 24h MWN trace", runFig41),
		expt("fig4.2", "Figure 4.2", "top-20 packet sizes with cumulative shares", runFig42),
		expt("fig4.3", "Figure 4.3/§4.3.1", "generator output fidelity vs input distribution", runFig43),
		expt("gen-rate", "§4.1.3", "maximum generation rate by fixed packet size", runGenRate),
		sweepExpt("fig6.2-nosmp", "Figure 6.2 (33)", "baseline, default buffers, single CPU", rateTitle, sysCfgs(defaultBuffers, single)),
		sweepExpt("fig6.2-smp", "Figure 6.2 (19)", "baseline, default buffers, dual CPU", rateTitle, sysCfgs(defaultBuffers, dual)),
		sweepExpt("fig6.3-nosmp", "Figure 6.3a (32)", "increased buffers, single CPU", rateTitle, sysCfgs(bigBuffers, single)),
		sweepExpt("fig6.3-smp", "Figure 6.3b (19)", "increased buffers, dual CPU", rateTitle, sysCfgs(bigBuffers, dual)),
		bufferSweepExpt("fig6.4-nosmp", "Figure 6.4a (33)", "buffer-size sweep at top rate, single CPU", single),
		bufferSweepExpt("fig6.4-smp", "Figure 6.4b (20)", "buffer-size sweep at top rate, dual CPU", dual),
		sweepExpt("fig6.6-nosmp", "Figure 6.6a (34)", "50-instruction BPF filter, single CPU", rateTitle, sysCfgs(withFilter, single)),
		sweepExpt("fig6.6-smp", "Figure 6.6b (21)", "50-instruction BPF filter, dual CPU", rateTitle, sysCfgs(withFilter, dual)),
		multiAppExpt("fig6.7", "Figure 6.7 (22)", "two concurrent capturing applications", 2),
		multiAppExpt("fig6.8", "Figure 6.8 (23)", "four concurrent capturing applications", 4),
		multiAppExpt("fig6.9", "Figure 6.9 (24)", "eight concurrent capturing applications", 8),
		sweepExpt("fig6.10-nosmp", "Figure 6.10a (35)", "50 additional memcpys per packet, single CPU", rateTitle, sysCfgs(memcpy(50), single)),
		sweepExpt("fig6.10-smp", "Figure 6.10b (27)", "50 additional memcpys per packet, dual CPU", rateTitle, sysCfgs(memcpy(50), dual)),
		sweepExpt("figB.2", "Figure B.2", "25 additional memcpys per packet, dual CPU", rateTitle, sysCfgs(memcpy(25), dual)),
		sweepExpt("fig6.11-nosmp", "Figure 6.11a (40)", "zlib level 3 per packet, single CPU", rateTitle, sysCfgs(gzwrite(3), single)),
		sweepExpt("fig6.11-smp", "Figure 6.11b (39)", "zlib level 3 per packet, dual CPU", rateTitle, sysCfgs(gzwrite(3), dual)),
		sweepExpt("figB.3", "Figure B.3", "zlib level 9 per packet, dual CPU", rateTitle, sysCfgs(gzwrite(9), dual)),
		sweepExpt("fig6.12", "Figure 6.12 (48)", "tcpdump piped to gzip -3, dual CPU", rateTitle, sysCfgs(pipeGzip(3), dual)),
		expt("fig6.13", "Figure 6.13 (00)", "bonnie++: maximum disk write speed and CPU", runBonnie),
		sweepExpt("fig6.14-nosmp", "Figure 6.14a (46)", "write first 76 bytes of each packet to disk, single CPU", rateTitle, sysCfgs(headerToDisk, single)),
		sweepExpt("fig6.14-smp", "Figure 6.14b (45)", "write first 76 bytes of each packet to disk, dual CPU", rateTitle, sysCfgs(headerToDisk, dual)),
		sweepExpt("fig6.15-nosmp", "Figure 6.15a (18)", "memory-mapped libpcap on Linux, single CPU", "mmap'd libpcap vs stock on Linux", mmapConfigs(single)),
		sweepExpt("fig6.15-smp", "Figure 6.15b (19)", "memory-mapped libpcap on Linux, dual CPU", "mmap'd libpcap vs stock on Linux", mmapConfigs(dual)),
		sweepExpt("fig6.16", "Figure 6.16 (42)", "Hyperthreading on the Intel systems", "Hyperthreading on vs off (Intel Xeon systems)", htConfigs),
		sweepExpt("figB.1", "Figure B.1", "FreeBSD 5.2.1 vs 5.4", "FreeBSD 5.4 vs 5.2.1", osVersionConfigs),
		selfSimExpt(),
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (see `experiment -list`)", id)
}

// --- configuration modifiers -------------------------------------------

type modifier func(cfg capture.Config) capture.Config

func single(cfg capture.Config) capture.Config { cfg.NumCPUs = 1; return cfg }
func dual(cfg capture.Config) capture.Config   { cfg.NumCPUs = 2; return cfg }

func defaultBuffers(cfg capture.Config) capture.Config { return cfg }

func bigBuffers(cfg capture.Config) capture.Config {
	if cfg.OS == capture.Linux {
		cfg.BufferBytes = capture.BigLinuxRcvbuf
	} else {
		cfg.BufferBytes = capture.BigBSDBuffer
	}
	return cfg
}

func withFilter(cfg capture.Config) capture.Config {
	cfg = bigBuffers(cfg)
	cfg.Filter = filter.MustCompile(filter.ReferenceFilterExpr, 1515)
	return cfg
}

func memcpy(n int) modifier {
	return func(cfg capture.Config) capture.Config {
		cfg = bigBuffers(cfg)
		cfg.Load.MemcpyCount = n
		return cfg
	}
}

func gzwrite(level int) modifier {
	return func(cfg capture.Config) capture.Config {
		cfg = bigBuffers(cfg)
		cfg.Load.ZlibLevel = level
		return cfg
	}
}

func pipeGzip(level int) modifier {
	return func(cfg capture.Config) capture.Config {
		cfg = bigBuffers(cfg)
		cfg.Load.PipeGzip = level
		return cfg
	}
}

func headerToDisk(cfg capture.Config) capture.Config {
	cfg = bigBuffers(cfg)
	cfg.Load.WriteSnapLen = 76
	return cfg
}

// --- generic sweeps ------------------------------------------------------

// sysCfgs returns the four thesis systems with the modifiers applied, as a
// config builder for sweepExpt.
func sysCfgs(mods ...modifier) func() []capture.Config {
	return func() []capture.Config { return systems(mods...) }
}

// sweep builds a sweep experiment: layout lays its cells out under the
// defaulted options, rule resolves each point from its cells, and table
// renders the main table from the layout, the series and the per-cell
// outcomes; the companion tables follow it.
func sweep(id, paper, title string, layout func(Options) core.Layout, rule core.PointRule,
	table func(l core.Layout, series []core.Series, outs []core.CellOutcome) string) Experiment {
	measure := func(o Options) (core.Layout, []core.Series, []core.CellOutcome) {
		l := layout(o)
		series, outs := core.Points(o.ctx(), l, o.engine(id), rule)
		return l, series, outs
	}
	return Experiment{ID: id, Paper: paper, Title: title, layout: layout,
		Run: func(o Options) string {
			o = o.withDefaults()
			l, series, outs := measure(o)
			return table(l, series, outs) + o.companions(series)
		},
		Series: func(o Options) []core.Series {
			_, series, _ := measure(o.withDefaults())
			return series
		}}
}

// sweepExpt builds a data-rate-sweep experiment: the §3.4 cycle over the
// configs, rendered the way the thesis plots it.
func sweepExpt(id, paper, title, tableTitle string, cfgs func() []capture.Config) Experiment {
	layout := func(o Options) core.Layout {
		return core.RateLayout(o.applyPolicy(cfgs()), o.Rates, core.Workload{Packets: o.Packets, Seed: o.Seed}, o.Reps)
	}
	return sweep(id, paper, title, layout, core.ResolvePoint,
		func(_ core.Layout, series []core.Series, _ []core.CellOutcome) string {
			return core.FormatTable(tableTitle, series)
		})
}

// cellPoint is the point rule of a per-cell sweep, whose points have one
// cell each. A quarantined cell keeps the statistics of its last attempt
// that produced any — unlike core.ResolvePoint, which aggregates only
// accepted repetitions.
func cellPoint(system string, x float64, column []core.CellOutcome, supervised bool) core.Point {
	out := column[0]
	pt := core.AggregatePoint(system, x, []capture.Stats{out.Stats})
	if supervised {
		pt.Attempts = out.Attempts
		if out.Quarantined {
			pt.Quarantined = 1
		}
		pt.Degraded = out.Degraded || out.Quarantined
		pt.FaultLog = strings.Join(out.Log, "; ")
	}
	return pt
}

func systems(mods ...modifier) []capture.Config {
	cfgs := core.Sniffers()
	for i := range cfgs {
		for _, m := range mods {
			cfgs[i] = m(cfgs[i])
		}
	}
	return cfgs
}

// axisCells lays a per-cell sweep out x-major, one repetition: at(x)
// returns the cells plotted at x, one per system (equally many for every
// x), and key fingerprints x.
func axisCells(xs []float64, key func(x float64) uint64, at func(x float64) []core.Cell) core.Layout {
	l := core.Layout{Reps: 1}
	for _, x := range xs {
		col := at(x)
		l.Cells, l.Systems = append(l.Cells, col...), len(col)
		for range col {
			l.IDs = append(l.IDs, core.CellID{Point: key(x), X: x})
		}
	}
	return l
}

// column feeds every base the workload w: the cells of one plotted x.
func column(bases []capture.Config, w core.Workload) []core.Cell {
	cells := make([]core.Cell, len(bases))
	for i, cfg := range bases {
		cells[i] = core.Cell{Cfg: cfg, W: w}
	}
	return cells
}

// cellExpt builds a per-cell sweep experiment: layout lays out its cells
// under the defaulted options, one repetition, and the rendered table is
// header followed by one row per width consecutive cells. row renders a
// row from the statistics of its cells; x is the row's plotted value and
// system the name of its first cell.
func cellExpt(id, paper, title, header string, layout func(o Options) core.Layout, width int,
	row func(out *strings.Builder, x float64, system string, sts []capture.Stats)) Experiment {
	return sweep(id, paper, title, layout, cellPoint,
		func(l core.Layout, _ []core.Series, outs []core.CellOutcome) string {
			var out strings.Builder
			out.WriteString(header)
			sts := make([]capture.Stats, len(outs))
			for i := range outs {
				sts[i] = outs[i].Stats
			}
			for i := 0; i < len(sts); i += width {
				row(&out, l.IDs[i].X, l.Cells[i].Cfg.Name, sts[i:i+width])
			}
			return out.String()
		})
}

// bufferSweepExpt reproduces Figure 6.4: highest rate, buffer size on the
// x axis ("the buffer size was reduced by a factor of two for FreeBSD" so
// the effective capacity matches single-buffered Linux).
func bufferSweepExpt(id, paper, title string, cpuMod modifier) Experiment {
	layout := func(o Options) core.Layout {
		w := core.Workload{Packets: o.Packets, Seed: o.Seed, TargetRate: 980e6}
		bases := o.applyPolicy(systems(cpuMod))
		var kbs []float64
		for kb := 128; kb <= 262144; kb *= 2 {
			kbs = append(kbs, float64(kb))
		}
		kbKey := func(kb float64) uint64 { return uint64(kb) }
		return axisCells(kbs, kbKey, func(kb float64) []core.Cell {
			cells := column(bases, w)
			for i := range cells {
				cells[i].Cfg.BufferBytes = int(kb) << 10
				if cells[i].Cfg.OS != capture.Linux {
					cells[i].Cfg.BufferBytes /= 2
				}
			}
			return cells
		})
	}
	return cellExpt(id, paper, title,
		"# capturing rate and CPU usage vs buffer size [kByte] at top rate\n# kB\tsystem\trate%\tcpu%\n",
		layout, 1, func(out *strings.Builder, x float64, system string, sts []capture.Stats) {
			fmt.Fprintf(out, "%d\t%s\t%6.2f\t%6.2f\n", int(x), system, sts[0].CaptureRate(), sts[0].CPUUsage())
		})
}

// multiAppExpt reproduces Figures 6.7–6.9: n applications, SMP, with the
// worst/average/best per-application lines.
func multiAppExpt(id, paper, title string, n int) Experiment {
	layout := func(o Options) core.Layout {
		bases := o.applyPolicy(systems(bigBuffers, dual))
		for i := range bases {
			bases[i].NumApps = n
		}
		return core.RateLayout(bases, o.Rates, core.Workload{Packets: o.Packets, Seed: o.Seed}, 1)
	}
	return cellExpt(id, paper, title,
		fmt.Sprintf("# %d capturing applications: per-app worst/avg/best rate and CPU vs data rate\n# rate\tsystem\tworst%%\tavg%%\tbest%%\tcpu%%\n", n),
		layout, 1, func(out *strings.Builder, x float64, system string, sts []capture.Stats) {
			wo, av, be := sts[0].AppRates()
			fmt.Fprintf(out, "%.0f\t%s\t%6.2f\t%6.2f\t%6.2f\t%6.2f\n", x, system, wo, av, be, sts[0].CPUUsage())
		})
}

// variants returns each base followed by a copy named base+suffix with
// vary applied: the paired columns of a with/without comparison.
func variants(suffix string, vary modifier, bases ...capture.Config) []capture.Config {
	var cfgs []capture.Config
	for _, base := range bases {
		v := vary(base)
		v.Name += suffix
		cfgs = append(cfgs, base, v)
	}
	return cfgs
}

func mmapPatch(cfg capture.Config) capture.Config { cfg.MmapPatch = true; return cfg }

// mmapConfigs builds Figure 6.15's systems: the two Linux machines with
// and without the memory-mapped libpcap.
func mmapConfigs(cpuMod modifier) func() []capture.Config {
	return func() []capture.Config {
		return variants("-mmap", mmapPatch, bigBuffers(cpuMod(core.Swan())), bigBuffers(cpuMod(core.Snipe())))
	}
}

// htConfigs builds Figure 6.16's systems: the Intel machines, SMP, HT on
// and off.
func htConfigs() []capture.Config {
	return variants("-HT", func(cfg capture.Config) capture.Config {
		cfg.Hyperthreading = true
		return cfg
	}, bigBuffers(dual(core.Snipe())), bigBuffers(dual(core.Flamingo())))
}

// osVersionConfigs builds Figure B.1's systems: FreeBSD 5.2.1 vs 5.4. The
// 5.2.1 kernel (fully Giant-locked network path) pays a per-packet cost
// factor.
func osVersionConfigs() []capture.Config {
	const giantFactor = 1.35
	return variants("-5.2.1", func(cfg capture.Config) capture.Config {
		if cfg.KernelCostFactor == 0 {
			cfg.KernelCostFactor = 1
		}
		cfg.KernelCostFactor *= giantFactor
		return cfg
	}, bigBuffers(dual(core.Moorhen())), bigBuffers(dual(core.Flamingo())))
}

// --- chapter 4 experiments ----------------------------------------------

func runFig41(o Options) string {
	o = o.withDefaults()
	c := trace.MWNCounts(10_000_000)
	var out strings.Builder
	fmt.Fprintln(&out, "# packet size distribution (24h-trace shape): size, count, fraction")
	fmt.Fprintf(&out, "# total %d packets, mean %.1f bytes\n", c.Total(), c.Mean())
	for _, s := range c.Sizes() {
		n := c.Get(s)
		if n == 0 {
			continue
		}
		fmt.Fprintf(&out, "%d\t%d\t%.6f\n", s, n, c.Fraction(s))
	}
	return out.String()
}

func runFig42(o Options) string {
	c := trace.MWNCounts(10_000_000)
	top, rest := c.TopShares(20)
	var out strings.Builder
	fmt.Fprintln(&out, "# top-20 packet sizes: size, fraction%, cumulative%")
	for _, e := range top {
		fmt.Fprintf(&out, "%d\t%6.2f\t%6.2f\n", e.Size, e.Fraction*100, e.Cumulative*100)
	}
	fmt.Fprintf(&out, "rest\t%6.2f\t100.00\n", rest*100)
	return out.String()
}

func runFig43(o Options) string {
	o = o.withDefaults()
	input := trace.MWNCounts(1_000_000)
	d, err := dist.Build(input, dist.DefaultParams())
	if err != nil {
		return "error: " + err.Error()
	}
	g := pktgen.New(o.Seed)
	g.LoadDistribution(d)
	g.Config.Count = o.Packets * 4
	var got dist.Counts
	for {
		p, ok := g.Next()
		if !ok {
			break
		}
		got.Add(len(p.Data)-14, 1) // back to IP length
	}
	var out strings.Builder
	fmt.Fprintln(&out, "# generator fidelity: size, input fraction%, generated fraction%")
	var worst float64
	var sizes []int
	for _, e := range d.Outliers {
		sizes = append(sizes, e.Size)
	}
	sort.Ints(sizes)
	for _, s := range sizes {
		in := input.Fraction(s) * 100
		gen := got.Fraction(s) * 100
		if dev := abs(in - gen); dev > worst {
			worst = dev
		}
		fmt.Fprintf(&out, "%d\t%7.3f\t%7.3f\n", s, in, gen)
	}
	fmt.Fprintf(&out, "# mean: input %.1f, generated %.1f; worst outlier deviation %.3f%%\n",
		input.Mean(), got.Mean(), worst)
	cmp := dist.Compare(input, &got)
	fmt.Fprintf(&out, "# distance: total variation %.4f, chi-square %.1f, max |Δp| %.4f @ %d B, |Δmean| %.2f B\n",
		cmp.TotalVariation, cmp.ChiSquare, cmp.MaxAbsDiff, cmp.MaxAbsDiffSize, cmp.MeanDiff)
	return out.String()
}

func runGenRate(o Options) string {
	o = o.withDefaults()
	var out strings.Builder
	fmt.Fprintln(&out, "# maximum generation rate by frame size: size, Mbit/s (wire), kpps")
	for _, size := range []int{64, 128, 256, 512, 760, 1024, 1280, 1500} {
		g := pktgen.New(o.Seed)
		g.Config.Count = o.Packets
		g.Config.PktSize = size
		for {
			if _, ok := g.Next(); !ok {
				break
			}
		}
		secs := g.LastTime.Seconds()
		fmt.Fprintf(&out, "%d\t%7.1f\t%7.1f\n", size,
			g.AchievedRate()/1e6, float64(g.Sent)/secs/1e3)
	}
	return out.String()
}

// --- other experiments ---------------------------------------------------

func runBonnie(o Options) string {
	var out strings.Builder
	fmt.Fprintln(&out, "# bonnie++: system, write MB/s, CPU%, line-speed demand 119 MB/s, header demand 13.6 MB/s")
	for _, cfg := range core.Sniffers() {
		r := capture.Bonnie(cfg)
		fmt.Fprintf(&out, "%s\t%6.1f\t%5.1f\n", r.System, r.WriteMBps, r.CPUPct)
	}
	return out.String()
}

// selfSimExpt is the extension experiment motivated by §2.5: with the
// same average rate, self-similar (bursty) arrivals overflow a buffer that
// paced arrivals never touch. Both columns replay one paced train; the
// bursty one re-times it.
func selfSimExpt() Experiment {
	layout := func(o Options) core.Layout {
		paced := single(core.Swan())
		bursty := paced
		bursty.Name += "-bursty"
		l := core.RateLayout([]capture.Config{paced, bursty}, []float64{200, 400, 600},
			core.Workload{Packets: o.Packets, Seed: o.Seed}, 1)
		for i := 1; i < len(l.Cells); i += 2 {
			// Self-similar gaps of the paced train's mean, seeded like the
			// train: the superposition of 16 Pareto on/off sources with
			// shape 1.5.
			w := l.Cells[i].W
			l.Cells[i].Wrap = func(src capture.Source) capture.Source {
				meanGap := 645.0 * 8 / w.TargetRate * 1e9
				return &retimed{src: src, gaps: trace.SelfSimilarArrivals(w.Packets, meanGap, 16, 1.5, w.Seed)}
			}
		}
		return l
	}
	return cellExpt("selfsim", "§2.5 (extension)", "self-similar vs paced arrivals: buffer absorption",
		"# paced vs self-similar arrivals at equal average rate (swan, default buffers, 1 CPU)\n# rate\tpaced-rate%\tbursty-rate%\n",
		layout, 2, func(out *strings.Builder, x float64, _ string, sts []capture.Stats) {
			fmt.Fprintf(out, "%.0f\t%6.2f\t%6.2f\n", x, sts[0].CaptureRate(), sts[1].CaptureRate())
		})
}

// retimed replays a train with its own pacing replaced by explicit
// inter-arrival gaps (nanoseconds): the first packet arrives gaps[0] after
// the run start and each later one its gap after the previous arrival,
// never at or before it. Packets beyond the gaps keep their own time.
type retimed struct {
	src  capture.Source
	gaps []int64
	i    int
	last sim.Time
}

func (r *retimed) Reset() {
	r.src.Reset()
	r.i, r.last = 0, 0
}

func (r *retimed) Next() (pktgen.Packet, bool) {
	p, ok := r.src.Next()
	if !ok {
		return p, false
	}
	if r.i < len(r.gaps) {
		p.At = r.last + sim.Time(r.gaps[r.i])
		r.i++
	}
	if p.At <= r.last {
		p.At = r.last + 1
	}
	r.last = p.At
	return p, true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
