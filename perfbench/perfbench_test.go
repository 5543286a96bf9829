package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/experiments"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run's setup probe re-executes it.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args, "--setup-probe") {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		wantValue float64
		wantPct   float64
	}{
		{0, 0, 0},
		{1, 1, 100},
		{19, 19, 100},    // below 20 samples: the maximum
		{20, 10, 50},     // p50 leaves exactly ten beyond
		{228, 218, 95.6}, // a thesis-2005 pass
		{1000, 990, 99},
		{100000, 99900, 99.9}, // percentiles come in tenths
	} {
		v, pct := tail(seq(tc.n))
		if v != tc.wantValue || pct != tc.wantPct {
			t.Errorf("tail of %d samples = %v at p%v, want %v at p%v", tc.n, v, pct, tc.wantValue, tc.wantPct)
		}
	}
	// For every sample count the reported percentile leaves at least ten
	// samples beyond it, and the next tenth of a percent would not.
	for n := 20; n <= 3000; n++ {
		v, pct := tail(seq(n))
		if beyond := n - int(v); beyond < 10 {
			t.Fatalf("n=%d: p%v leaves %d samples beyond it", n, pct, beyond)
		}
		next := int(pct*10+0.5) + 1
		if rank := (next*n + 999) / 1000; n-rank >= 10 {
			t.Fatalf("n=%d: p%v is not the highest qualifying percentile", n, pct)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestSection(t *testing.T) {
	doc := "==== a (A): first ====\nline 1\nline 2\n\n" +
		"==== ab (AB): prefix of nothing ====\nx\n\n" +
		"==== b (B): last ====\n# t\n1\t2\n\n"
	for id, want := range map[string]string{"a": "line 1\nline 2\n", "ab": "x\n", "b": "# t\n1\t2\n"} {
		got, ok := section(doc, id)
		if !ok || got != want {
			t.Errorf("section %q = %q, %v; want %q", id, got, ok, want)
		}
	}
	if _, ok := section(doc, "c"); ok {
		t.Error("found a section that does not exist")
	}

	ref, err := os.ReadFile(filepath.Join("..", referenceFile))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := section(string(ref), "fig6.2-smp")
	lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if !ok || len(lines) != 21 || lines[0] != "# capturing rate and CPU usage vs data rate [Mbit/s]" ||
		!strings.HasPrefix(lines[20], "950\t") {
		t.Errorf("fig6.2-smp section of %s: %d lines, first %q", referenceFile, len(lines), lines[0])
	}
	if _, ok := section(string(ref), "ext-modern"); !ok {
		t.Error("the last section of the reference is missing")
	}
}

func TestTablePart(t *testing.T) {
	table := "# t\n# x\ta\n50\t1\n"
	why := "# why: drop causes per point (packets summed over repetitions)\n50\ta\t0\t-\n"
	if got := tablePart(table + "\n" + why); got != table {
		t.Errorf("tablePart = %q, want %q", got, table)
	}
	if got := tablePart(table); got != table {
		t.Errorf("tablePart without a why table = %q", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // outside the parent after 100
		{Name: "open", Parent: 0, Start: 60, End: -1},
		{Name: "grandchild", Parent: 1, Start: 12, End: 18},
		{Name: "other-root", Parent: -1, Start: 0, End: 7},
	}
	want := []int64{50, 14, 30, 30, 0, 6, 7}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestCaptureGroups(t *testing.T) {
	p, err := workloads["thesis-2005"].plan(1)
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]int{}
	for _, id := range workloads["thesis-2005"].ids {
		set, err := experiments.EnumerateCells(id, p.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range set.Cells {
			groups[captureGroup(c.Cfg)]++
		}
	}
	want := map[string]int{"linux": 38, "bsd": 38, "linux.filter": 38, "bsd.filter": 38, "linux.apps4": 38, "bsd.apps4": 38}
	if len(groups) != len(want) {
		t.Fatalf("groups = %v, want %v", groups, want)
	}
	for g, n := range want {
		if groups[g] != n {
			t.Errorf("group %s has %d cells, want %d", g, groups[g], n)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogCoversBenchmark checks that catalog.json documents exactly
// the metrics BENCHMARK.json lists, under valid names and units, that it
// measures metrics only on workloads the benchmark has, and that
// BENCHMARK.json lists the benchmark's workloads.
func TestCatalogCoversBenchmark(t *testing.T) {
	bench, err := loadBenchmark("..")
	if err != nil {
		t.Fatal(err)
	}
	var cat struct {
		Notes   map[string]string `json:"notes"`
		Metrics map[string]struct {
			Clock      string `json:"clock"`
			Definition string `json:"definition"`
			MeasuredOn string `json:"measured_on"`
			Moves      string `json:"moves"`
			NoChangeOn string `json:"no_change_on"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(string(catalogJSON)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cat); err != nil {
		t.Fatalf("catalog.json: %v", err)
	}
	listed := map[string]bool{}
	for _, d := range append(append([]metricSpec(nil), bench.EndToEnd...), bench.PerLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || listed[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", d.Name, d.Unit)
		}
		listed[d.Name] = true
		if m, ok := cat.Metrics[d.Name]; !ok || m.Definition == "" || m.Clock == "" {
			t.Errorf("metric %s has no definition and clock in catalog.json", d.Name)
		}
	}
	for name, m := range cat.Metrics {
		if !listed[name] {
			t.Errorf("catalog.json documents %s, which BENCHMARK.json does not list", name)
		}
		if _, ok := workloads[m.MeasuredOn]; m.MeasuredOn != "" && !ok {
			t.Errorf("metric %s is measured on %q, which is not a workload", name, m.MeasuredOn)
		}
	}
	if _, err := homes(); err != nil {
		t.Error(err)
	}

	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &names); err != nil {
		t.Fatal(err)
	}
	for _, w := range names.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %s, which the benchmark does not have", w.Name)
		}
	}
	if len(names.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(names.Workloads), len(workloads))
	}
}

// TestStartCampaignSetupFailure sets a campaign up where its files
// cannot be made: setup must fail with an error, not a panic, and leave
// nothing running.
func TestStartCampaignSetupFailure(t *testing.T) {
	p, err := smallWorkloads()["campaign-dist"].plan(1)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	file := filepath.Join(tmp, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	walBlocked := filepath.Join(tmp, "wal-blocked")
	if err := os.MkdirAll(filepath.Join(walBlocked, dispatch.WALFile), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{
		"journal": filepath.Join(file, "campaign"), // under a regular file
		"wal":     walBlocked,                      // the journal is made, the lease WAL is not
	} {
		if c, err := startCampaign(p, dir, nil); err == nil || c != nil {
			t.Errorf("%s: startCampaign = %v, %v; want an error", name, c, err)
		}
	}
}

// smallWorkloads are the workloads cut down for a quick smoke run: the
// same experiments and code paths at short trains and two rates.
func smallWorkloads() map[string]workload {
	out := map[string]workload{}
	for name, wl := range workloads {
		wl.opts.Packets = 3000
		wl.opts.Reps = 1
		wl.opts.Rates = []float64{300, 800}
		out[name] = wl
	}
	return out
}

func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bench, err := loadBenchmark("..")
	if err != nil {
		t.Fatal(err)
	}
	hs, err := homes()
	if err != nil {
		t.Fatal(err)
	}
	suite := smallWorkloads()
	for name := range suite {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				cfg := config{workload: name, seed: 7, trace: traced, root: "..", out: t.TempDir()}
				r := newResult()
				if err := runWorkload(suite, cfg, r); err != nil {
					t.Fatal(err)
				}
				specs := bench.EndToEnd
				if traced {
					specs = bench.PerLayer
				}
				var out strings.Builder
				line, err := report(&out, specs, r)
				if err != nil {
					t.Fatal(err)
				}
				if len(r.problems) > 0 || r.failed > 0 || r.attempted == 0 {
					t.Fatalf("%d of %d cells failed: %v", r.failed, r.attempted, r.problems)
				}
				var res struct {
					Correct bool                       `json:"correct"`
					Metrics map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &res); err != nil || !res.Correct || len(res.Metrics) != len(specs) {
					t.Fatalf("result line %s: %v", line, err)
				}
				for _, d := range specs {
					if _, ok := res.Metrics[d.Name]; !ok {
						t.Errorf("metric %s is missing from the result", d.Name)
					}
					want := hs[d.Name]
					if want == name {
						want = ""
					}
					if from := r.metrics[d.Name].from; from != want {
						t.Errorf("metric %s measured on %q, want %q", d.Name, from, want)
					}
				}
			})
		}
	}
}

// TestModernMatchesReference runs modern-100g once at full size and seed
// 1 and checks its table against results_full.txt; a corrupted table
// must fail the check.
func TestModernMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size pass")
	}
	p, err := workloads["modern-100g"].plan(1)
	if err != nil {
		t.Fatal(err)
	}
	r := newResult()
	text := p.pass(p.opts, nil, r)
	cfg := config{root: ".."}
	checkReference(p, text, cfg, r)
	if len(r.problems) > 0 || r.failed > 0 {
		t.Fatalf("modern-100g at seed 1: %v", r.problems)
	}
	bad := newResult()
	checkReference(p, strings.Replace(text, "heron-r2-a1", "heron-r2-aX", 1), cfg, bad)
	if bad.failed != p.cells || len(bad.problems) != 1 {
		t.Errorf("a corrupted table failed %d cells with %v", bad.failed, bad.problems)
	}
}
