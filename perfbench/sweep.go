package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/experiments"
)

// workload is one benchmark workload: a fixed list of experiments at fixed
// options. The seed is the only input that varies between runs.
type workload struct {
	ids  []string
	opts experiments.Options
	// distributed runs the experiments as a journaled campaign leased to
	// a worker over loopback HTTP and watched over SSE (campaign.go);
	// otherwise they run through Experiment.Run in this process.
	distributed bool
}

// workloads are the benchmark's workloads; BENCHMARK.json says why each
// was chosen. The train lengths are those of results_full.txt (40 000
// packets) and of the CI distributed step (6 000 packets, 2 reps).
var workloads = map[string]workload{
	"thesis-2005": {
		ids:  []string{"fig6.2-smp", "fig6.6-smp", "fig6.8"},
		opts: experiments.Options{Packets: 40_000, Reps: 1},
	},
	"modern-100g": {
		ids:  []string{"ext-modern"},
		opts: experiments.Options{Packets: 40_000, Reps: 1},
	},
	"campaign-dist": {
		ids:         []string{"fig6.2-smp", "fig6.4-smp", "fig6.7", "ext-modern"},
		opts:        experiments.Options{Packets: 6_000, Reps: 2},
		distributed: true,
	},
}

// plan is a workload resolved for one seed: its experiments, the options
// they run with, and the cell space they enumerate to.
type plan struct {
	exps     []experiments.Experiment
	expCells []int // cells per experiment
	opts     experiments.Options
	cells    int
	packets  int64           // simulated packets offered per pass: the sum of the cells' train lengths
	trains   []core.Workload // distinct packet trains, for the layer replays
}

// plan builds the workload's configuration and enumerates its cells.
// This is the set-up every run pays before its measured phase.
func (wl workload) plan(seed uint64) (*plan, error) {
	o := wl.opts
	o.Seed = seed
	o.Parallelism = -1
	o.Why = true
	p := &plan{opts: o}
	seen := map[core.Workload]bool{}
	for _, id := range wl.ids {
		e, err := experiments.Find(id)
		if err != nil {
			return nil, err
		}
		set, err := experiments.EnumerateCells(id, o)
		if err != nil {
			return nil, err
		}
		p.exps = append(p.exps, e)
		p.expCells = append(p.expCells, set.Len())
		p.cells += set.Len()
		for _, c := range set.Cells {
			p.packets += int64(c.W.Packets)
			if !seen[c.W] {
				seen[c.W] = true
				p.trains = append(p.trains, c.W)
			}
		}
	}
	return p, nil
}

// pass runs every experiment once and renders them the way
// `experiment -id` prints them. x, when non-nil, runs the cells and
// records spans.
func (p *plan) pass(o experiments.Options, x *tracedExecutor, r *result) string {
	var b strings.Builder
	for i := range p.exps {
		b.WriteString(p.render(i, o, x, r))
	}
	return b.String()
}

// render runs experiment i and returns its block of `experiment` output.
// With an observer in o it brackets the run with experiment start and
// finish events, as the experiment command does. A failed run counts
// every cell of the experiment as failed and renders nothing.
func (p *plan) render(i int, o experiments.Options, x *tracedExecutor, r *result) string {
	e := p.exps[i]
	r.attempted += p.expCells[i]
	if o.Observer != nil {
		o.Observer.Observe(core.Event{Kind: core.EventExperimentStart, Experiment: e.ID})
	}
	text, err := runExperiment(e, o, x)
	if err != nil {
		r.failed += p.expCells[i]
		r.fail("%s: %v", e.ID, err)
		return ""
	}
	if o.Observer != nil {
		o.Observer.Observe(core.Event{Kind: core.EventExperimentFinish, Experiment: e.ID})
	}
	return fmt.Sprintf("==== %s (%s): %s ====\n%s\n", e.ID, e.Paper, e.Title, text)
}

// runExperiment is Experiment.Run with a failing cell turned into an
// error: the engines re-raise a cell's panic or error in the caller.
func runExperiment(e experiments.Experiment, o experiments.Options, x *tracedExecutor) (text string, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("run failed: %v", v)
		}
	}()
	if x != nil {
		sp := x.tr.begin("experiments.run", e.ID, -1)
		defer x.tr.end(sp)
		x.parent = sp
		o.Executor = x
	}
	return e.Run(o), nil
}

// measureSweep is the untraced run of an in-process workload. It cycles
// through the experiments, one whole pass and then on until the measured
// phase has lasted cfg.seconds, and takes each experiment's median wall
// and CPU time: a burst of outside load slows one sample, not the
// result. A pass costs the sum of the medians. Before each timed run it
// takes a batch of setup probes.
func measureSweep(p *plan, cfg config, setup *setupProber, r *result) error {
	n := len(p.exps)
	walls, cpus := make([][]float64, n), make([][]float64, n)
	first := make([]string, n)
	runs := 0
	for start := time.Now(); runs < n || time.Since(start) < cfg.seconds; runs++ {
		i := runs % n
		if err := setup.batch(); err != nil {
			return err
		}
		t0, c0 := time.Now(), cpuTime()
		text := p.render(i, p.opts, nil, r)
		walls[i] = append(walls[i], time.Since(t0).Seconds())
		cpus[i] = append(cpus[i], (cpuTime() - c0).Seconds())
		if runs < n {
			first[i] = text
		} else if text != first[i] {
			r.failed += p.expCells[i]
			r.fail("%s rendered different output on run %d", p.exps[i].ID, runs/n+1)
		}
	}
	var wall, cpu float64
	for i := range p.exps {
		wall += median(walls[i])
		cpu += median(cpus[i])
	}
	setRunMetrics(r, float64(p.packets), wall, cpu, runs)
	checkReference(p, strings.Join(first, ""), cfg, r)
	return nil
}

// setRunMetrics records the end-to-end metrics of a pass that offered
// pkts simulated packets in wall seconds and used cpu seconds of CPU;
// samples is the number of timed runs behind those figures.
func setRunMetrics(r *result, pkts, wall, cpu float64, samples int) {
	r.set("sim_pkts_per_s", pkts/wall, samples)
	r.set("cpu_ns_per_pkt", cpu*1e9/pkts, samples)
	rss, err := peakRSSMB()
	if err != nil {
		r.fail("peak RSS: %v", err)
	}
	r.set("peak_rss_mb", rss, 1)
}

// traceSweep is the traced run of an in-process workload: pairs of an
// untraced and a traced pass. The traced pass hands the cells to
// tracedExecutor, so it differs from the untraced one only by its timers,
// and both must render the same bytes. label names the span file.
func traceSweep(p *plan, cfg config, r *result, label string) {
	tr := newTracer()
	x := &tracedExecutor{tr: tr, workers: p.opts.Parallelism}
	var plain, traced time.Duration
	var rt runtimeDelta
	var first string
	pairs := 0
	for start := time.Now(); pairs == 0 || time.Since(start) < cfg.seconds; pairs++ {
		before, t0 := readRuntime(), time.Now()
		text := p.pass(p.opts, nil, r)
		plain += time.Since(t0)
		rt.add(before, readRuntime(), p.packets)
		t0 = time.Now()
		tracedText := p.pass(p.opts, x, r)
		traced += time.Since(t0)
		if pairs == 0 {
			first = text
		}
		if text != first || tracedText != first {
			r.failed += p.cells
			r.fail("pair %d: the traced and untraced passes rendered different output", pairs+1)
		}
	}
	checkReference(p, first, cfg, r)
	x.report(r)
	rt.report(r)
	r.set("trace.overhead_pct", 100*(traced.Seconds()/plain.Seconds()-1), pairs)
	writeSpans(tr, cfg, label)
}

// tracedExecutor runs cells the way the engine's local pool does — the
// same worker count, the same dispatch order, a fresh feed cache per
// call — and records a span around each call into a layer: the feed
// cache, system construction, the simulated run, and the engine's
// completion callback.
type tracedExecutor struct {
	tr      *tracer
	workers int // the Options.Parallelism convention
	parent  int // span of the Experiment.Run in progress

	mu    sync.Mutex
	cells []cellRecord
}

// cellRecord is what one traced cell measured.
type cellRecord struct {
	span, run    int    // the core.cell and capture.run spans; run is -1 until the run starts
	group        string // capture metric family ("linux", "poll.apps4", ...); "" for none
	packets      uint64 // Stats.Generated
	events       uint64 // Sim.Steps
	truncated    bool
	conservation error
}

var _ core.CellExecutor = (*tracedExecutor)(nil)

// ExecuteCells implements core.CellExecutor with the local pool's
// scheduling.
func (x *tracedExecutor) ExecuteCells(ctx context.Context, experiment string, cells []core.Cell, ids []core.CellID, done func(int, *capture.Stats, string) error) []error {
	exec := x.tr.begin("core.execute", experiment, x.parent)
	defer x.tr.end(exec)
	feeds := core.NewFeedCache(core.DefaultFeedCacheSize)
	errs := make([]error, len(cells))
	run := func(i int) {
		key := cellKey(core.CellKey{Experiment: experiment, Point: ids[i].Point, System: cells[i].Cfg.Name, Rep: ids[i].Rep})
		errs[i] = x.runCell(exec, key, cells[i], feeds, func(st *capture.Stats) error { return done(i, st, "") })
	}
	n := core.Workers(x.workers)
	if n > len(cells) {
		n = len(cells)
	}
	if n <= 1 {
		for i := range cells {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			run(i)
		}
		return errs
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				run(i)
			}
		}()
	}
	i := 0
dispatch:
	for ; i < len(cells); i++ {
		if ctx.Err() != nil {
			break
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	for ; i < len(cells); i++ {
		errs[i] = ctx.Err()
	}
	wg.Wait()
	return errs
}

// runCell measures one cell as the engine's pool does, with a panic
// turned into the cell's error.
func (x *tracedExecutor) runCell(parent int, key string, c core.Cell, feeds *core.FeedCache, done func(*capture.Stats) error) (err error) {
	rec := cellRecord{span: x.tr.begin("core.cell", key, parent), run: -1, group: captureGroup(c.Cfg)}
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("cell %s panicked: %v", key, v)
		}
		x.tr.end(rec.span)
		x.mu.Lock()
		x.cells = append(x.cells, rec)
		x.mu.Unlock()
	}()
	sp := x.tr.begin("core.feed", key, rec.span)
	src := feeds.Get(c.W).Replay()
	x.tr.end(sp)
	if c.Wrap != nil {
		src = c.Wrap(src)
	}
	sp = x.tr.begin("core.prepare", key, rec.span)
	sys := capture.NewSystem(core.Prepare(c.Cfg, c.W))
	x.tr.end(sp)
	rec.run = x.tr.begin("capture.run", key, rec.span)
	st := sys.RunSource(src)
	x.tr.end(rec.run)
	rec.packets, rec.events, rec.truncated = st.Generated, sys.Sim.Steps(), st.Truncated
	rec.conservation = st.CheckConservation()
	sp = x.tr.begin("core.done", key, rec.span)
	err = done(&st)
	x.tr.end(sp)
	return err
}

// captureGroup names the capture metric family of a cell: its stack,
// then ".apps4" for four applications or ".filter" for a filtered single
// application. Other shapes (two or eight applications) belong to none.
func captureGroup(cfg capture.Config) string {
	var stack string
	switch {
	case cfg.Stack == capture.StackRSS:
		stack = "napi"
	case cfg.Stack == capture.StackPoll:
		stack = "poll"
	case cfg.Stack == capture.StackZeroCopy:
		stack = "zerocopy"
	case cfg.OS == capture.FreeBSD:
		stack = "bsd"
	default:
		stack = "linux"
	}
	apps := max(cfg.NumApps, 1)
	switch {
	case apps == 1 && len(cfg.Filter) > 0:
		return stack + ".filter"
	case apps == 1:
		return stack
	case apps == 4 && len(cfg.Filter) == 0:
		return stack + ".apps4"
	}
	return ""
}

// captureGroups are the families the catalog reports; events per packet
// is reported for the plain single-application ones.
var captureGroups = []string{
	"linux", "bsd", "napi", "poll", "zerocopy",
	"linux.apps4", "bsd.apps4", "napi.apps4", "poll.apps4", "zerocopy.apps4",
	"linux.filter", "bsd.filter",
}

// report derives the cell-level metrics from the traced cells. Each
// cell that broke ledger conservation counts as failed.
func (x *tracedExecutor) report(r *result) {
	spans := x.tr.snapshot()
	x.mu.Lock()
	cells := append([]cellRecord(nil), x.cells...)
	x.mu.Unlock()
	if len(cells) == 0 {
		return
	}
	type sum struct {
		runNS           float64
		packets, events uint64
		n               int
	}
	var all sum
	groups := map[string]*sum{}
	var cellMS []float64
	truncated := 0
	for _, c := range cells {
		cellMS = append(cellMS, spans[c.span].dur()/1e6)
		if c.conservation != nil {
			r.failed++
			r.fail("traced cell %s: %v", spans[c.span].ID, c.conservation)
		}
		if c.truncated {
			truncated++
		}
		if c.run < 0 || spans[c.run].End < 0 { // the cell panicked
			continue
		}
		g := groups[c.group]
		if g == nil {
			g = &sum{}
			groups[c.group] = g
		}
		for _, s := range []*sum{&all, g} {
			s.runNS += spans[c.run].dur()
			s.packets += c.packets
			s.events += c.events
			s.n++
		}
	}
	r.set("core.cell_p50_ms", median(cellMS), len(cellMS))
	r.setTail("core.cell_tail_ms", cellMS)
	r.set("capture.truncated_cells", float64(truncated), len(cells))
	if all.packets > 0 && all.events > 0 {
		r.set("sim.events_per_pkt", float64(all.events)/float64(all.packets), all.n)
		r.set("sim.ns_per_event", all.runNS/float64(all.events), all.n)
	}
	for _, g := range captureGroups {
		s := groups[g]
		if s == nil || s.packets == 0 {
			continue
		}
		r.set("capture."+g+".ns_per_pkt", s.runNS/float64(s.packets), s.n)
		if !strings.Contains(g, ".") {
			r.set("capture."+g+".events_per_pkt", float64(s.events)/float64(s.packets), s.n)
		}
	}
	var outside []float64
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Name == "experiments.run" {
			outside = append(outside, float64(self[i])/1e6)
		}
	}
	r.set("experiments.outside_cells_ms", median(outside), len(outside))
}

// cellKey renders a cell's durable key as the span identifier shared by
// every layer that handles the cell.
func cellKey(k core.CellKey) string {
	return fmt.Sprintf("%s/%d/%s/%d", k.Experiment, k.Point, k.System, k.Rep)
}
