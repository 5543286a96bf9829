// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of the simulator through the public entry points the
// experiment command uses, checks that the rendered output still matches
// the model's reference, and prints the workload's metrics: one line per
// metric for people, then one JSON object as the last line.
//
//	bash perfbench/run.sh --workload thesis-2005 --seed 1 --seconds 25 --trace 0
//
// Every figure it reports is host time: what the simulator costs to run.
// The simulated statistics (capture rate, simulated CPU usage, the drop
// ledger) are the model's output; the benchmark checks that they did not
// change and never reports them as speed.
//
// With --trace 0 the run measures the end-to-end metrics with tracing off.
// With --trace 1 it runs the workload once untraced and once with spans
// recorded around every call into a layer, and reports the per-layer
// metrics. BENCHMARK.json lists the metrics; catalog.json defines them.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// metricSpec is one metric as BENCHMARK.json lists it.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads: the
// metrics each mode reports, with their units.
type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmark(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// catalog.json documents every metric beyond what BENCHMARK.json can
// hold. The benchmark reads one field of it: the workload a per-layer
// metric is measured on.
//
//go:embed catalog.json
var catalogJSON []byte

// homes maps each per-layer metric measured on one workload to that
// workload; metrics every workload measures itself are absent.
func homes() (map[string]string, error) {
	var c struct {
		Metrics map[string]struct {
			MeasuredOn string `json:"measured_on"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(catalogJSON, &c); err != nil {
		return nil, fmt.Errorf("catalog.json: %w", err)
	}
	out := map[string]string{}
	for name, m := range c.Metrics {
		if m.MeasuredOn != "" {
			out[name] = m.MeasuredOn
		}
	}
	return out, nil
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string // checkout root: holds BENCHMARK.json and results_full.txt
	out      string // scratch directory for journals and span files
}

// measurement is one reported metric value and the observations behind it.
type measurement struct {
	value   float64
	samples int
	pct     float64 // the percentile a tail metric reports; 0 otherwise
	from    string  // the workload it was measured on, when not the run's own
}

// result collects what a run measured and whether its outputs were right.
type result struct {
	attempted int // cells run
	failed    int // cells that panicked, errored, broke conservation or never completed
	problems  []string
	metrics   map[string]measurement
}

func newResult() *result { return &result{metrics: map[string]measurement{}} }

// fail records a correctness failure; any one makes the run incorrect.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, value float64, samples int) {
	r.metrics[name] = measurement{value: value, samples: samples}
}

// setTail records the tail of xs under name (see tail for the rule).
func (r *result) setTail(name string, xs []float64) {
	v, pct := tail(xs)
	r.metrics[name] = measurement{value: v, samples: len(xs), pct: pct}
}

// adopt takes every metric measured on workload home from hr, a traced
// run of home, in place of r's own value, together with hr's cells and
// failures.
func (r *result) adopt(hr *result, home string, homes map[string]string) {
	for name, h := range homes {
		if h != home {
			continue
		}
		delete(r.metrics, name)
		if m, ok := hr.metrics[name]; ok {
			m.from = home
			r.metrics[name] = m
		}
	}
	r.attempted += hr.attempted
	r.failed += hr.failed
	for _, p := range hr.problems {
		r.problems = append(r.problems, home+": "+p)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program. Exit codes: 0 correct, 1 an output check or
// the run itself failed, 2 usage error. Only a completed run prints the
// result line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: thesis-2005, modern-100g or campaign-dist")
		seed    = fs.Uint64("seed", 1, "workload seed (1 reproduces results_full.txt)")
		seconds = fs.Float64("seconds", 25, "length of the measured phase in seconds (at least one whole pass)")
		trace   = fs.Int("trace", 0, "0 measures the end-to-end metrics untraced; 1 runs the traced pass and reports the per-layer metrics")
		root    = fs.String("root", ".", "checkout root holding BENCHMARK.json and results_full.txt")
		out     = fs.String("out", ".bench_build/perfbench-run", "scratch directory for campaign journals and span files")
		probe   = fs.Bool("setup-probe", false, "internal: set the workload up, print \"ready\", tear it down and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || fs.NArg() != 0 || *seed == 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload thesis-2005|modern-100g|campaign-dist, a seed > 0, --seconds >= 0 and --trace 0|1")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, root: *root, out: *out}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *probe {
		if err := setupOnce(wl, cfg, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: setup probe:", err)
			return 1
		}
		return 0
	}
	bench, err := loadBenchmark(cfg.root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	r := newResult()
	if err := runWorkload(workloads, cfg, r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	specs := bench.EndToEnd
	if cfg.trace {
		specs = bench.PerLayer
	}
	line, err := report(stdout, specs, r)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range r.problems {
		fmt.Fprintln(stderr, "perfbench: FAIL:", p)
	}
	fmt.Fprintln(stdout, line)
	if len(r.problems) > 0 || r.failed > 0 {
		return 1
	}
	return 0
}

// runWorkload measures workload cfg.workload of suite in the configured
// mode.
func runWorkload(suite map[string]workload, cfg config, r *result) error {
	if cfg.trace {
		return traceWorkload(suite, cfg, r)
	}
	wl := suite[cfg.workload]
	setup, err := newSetupProber(cfg)
	if err != nil {
		return err
	}
	p, err := wl.plan(cfg.seed)
	if err != nil {
		return err
	}
	if wl.distributed {
		err = measureCampaign(p, cfg, setup, r)
	} else {
		err = measureSweep(p, cfg, setup, r)
	}
	if err != nil {
		return err
	}
	setup.report(r)
	return nil
}

// traceWorkload is the traced run: the workload's traced pairs and the
// layer replays over its trains. A per-layer metric that catalog.json
// says is measured on another workload — a layer this one does not
// exercise, or a replay defined on that workload's trains — comes from
// one traced pair of that workload at its own shape and the run's seed,
// so a per-layer metric means the same thing under every workload.
func traceWorkload(suite map[string]workload, cfg config, r *result) error {
	hs, err := homes()
	if err != nil {
		return err
	}
	if err := traceOne(suite[cfg.workload], cfg, r, "workload"); err != nil {
		return err
	}
	var others []string
	for _, h := range hs {
		if h != cfg.workload && !slices.Contains(others, h) {
			others = append(others, h)
		}
	}
	sort.Strings(others)
	for _, h := range others {
		wl, ok := suite[h]
		if !ok {
			return fmt.Errorf("catalog.json measures metrics on %q, which is not a workload", h)
		}
		hcfg := cfg
		hcfg.seconds = 0 // one pair
		hr := newResult()
		if err := traceOne(wl, hcfg, hr, h); err != nil {
			return fmt.Errorf("%s: %w", h, err)
		}
		r.adopt(hr, h, hs)
	}
	return nil
}

// traceOne runs a workload's traced pairs and its layer replays; label
// names the span file.
func traceOne(wl workload, cfg config, r *result, label string) error {
	p, err := wl.plan(cfg.seed)
	if err != nil {
		return err
	}
	if wl.distributed {
		if err := traceCampaign(p, cfg, r, label); err != nil {
			return err
		}
	} else {
		traceSweep(p, cfg, r, label)
	}
	replayLayers(p, r)
	return nil
}

// report prints one line per metric in specs, plus the failure ratio,
// and returns the result line.
func report(w io.Writer, specs []metricSpec, r *result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range specs {
		m, ok := r.metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is not a number (%v)", d.Name, m.value)
		}
		note := fmt.Sprintf("n=%d", m.samples)
		if m.pct > 0 {
			note += fmt.Sprintf(" p%g", m.pct)
		}
		if m.from != "" {
			note += " from " + m.from
		}
		fmt.Fprintf(w, "%-34s %16.6g %-6s %s\n", d.Name, m.value, d.Unit, note)
		metrics[d.Name] = value{Value: m.value, Unit: d.Unit}
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-34s %16.6g %-6s failed=%d attempted=%d\n", "fail_ratio", ratio, "ratio", r.failed, r.attempted)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, metrics})
	return string(line), err
}

// median returns the median of xs (the mean of the middle two for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, in tenths of a percent, by the nearest-rank rule, and that
// percentile. Below 20 samples no percentile from the median up
// qualifies; the maximum is returned as p100.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 20 {
		return s[n-1], 100
	}
	p10 := 1000 * (n - 10) / n   // percentile in tenths, rounded down
	rank := (p10*n + 999) / 1000 // nearest rank: ceil(p/100 · n), at most n-10
	return s[rank-1], float64(p10) / 10
}
