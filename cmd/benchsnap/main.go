// Command benchsnap records and compares normalized benchmark snapshots so
// the simulator's performance trajectory is a tracked, enforced property of
// the repository instead of a claim in a commit message.
//
// Subcommands:
//
//	benchsnap run -out BENCH_0007.json [-count 3] [-notes "..."]
//	    Runs the tier-1 benchmarks (sim, BPF, filter and generator
//	    microbenchmarks, the feed layer of one rate sweep, one packet-path
//	    run per capture stack, end-to-end sweeps) count times each, keeps the minimum ns/op per benchmark
//	    (the least-noise estimator on a shared machine), and writes a
//	    normalized JSON snapshot with environment metadata.
//
//	benchsnap compare -old BENCH_0006.json -new fresh.json [-threshold 0.10] [-floor 10] [-allow-missing]
//	    Compares two snapshots and exits non-zero if any tier-1 benchmark
//	    regressed by more than threshold in ns/op. Relative regressions
//	    whose absolute delta is under floor ns/op are timer jitter on a
//	    nanoseconds-per-op benchmark, not code, and are not gated. A tier-1
//	    benchmark present in the baseline but missing from the candidate
//	    fails the gate (deleting a benchmark must not pass it); the
//	    -allow-missing flag downgrades exactly those to warnings, for
//	    intentionally renamed or retired benchmarks. Setting the
//	    BENCHGATE_ACCEPT environment variable to a non-empty reason
//	    downgrades all regressions to warnings — the documented override
//	    for intentional performance trade-offs.
//
//	benchsnap latest [-dir .]
//	    Prints the path of the highest-numbered BENCH_*.json snapshot, for
//	    CI to feed into compare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/journal"
)

// tier1 lists the benchmarks the regression gate enforces. Everything else
// that happens to match the bench regexes is recorded but not gated. The
// CaptureRun pair per capture stack replays the packet-path trains on a
// warm System, whose steady state allocates nothing per packet: against a
// baseline from other hardware the gate compares allocs/op, so a stack
// whose packet path starts allocating again fails it.
var tier1 = []string{
	"EventQueue", "Schedule", "Cancel", "RunDense", "RunSparse",
	"SweepSerial", "SweepParallel", "SimulatedCaptureRun", "PollModeCaptureRun",
	"CaptureRun/swan", "CaptureRun/moorhen", "CaptureRun/heron", "CaptureRun/osprey", "CaptureRun/kite",
	"BPFRunReferenceFilter", "FilterCompile", "PktgenNext", "FeedSweep",
	"DispatchEngineCall", "DispatchEngineCall32",
}

// benchSet is one `go test -bench` invocation: which package, which
// benchmarks, and how long each iteration set should run. The end-to-end
// sweeps take ~150 ms per op, so they get a fixed small iteration count, as
// do the dispatch engine calls, whose ops each include HTTP round trips
// and four or 32 measured cells. The
// microbenchmarks use a time-based benchtime so every sample runs ~0.5 s of
// measured work regardless of per-op cost: a fixed iteration count would
// give a ~5 ns/op benchmark millisecond-long samples, and on a shared host a
// single scheduler preemption then swings the sample tens of percent —
// min-of-count over such samples tracks host noise, not the code.
type benchSet struct {
	pkg   string
	bench string
	time  string
}

var benchSets = []benchSet{
	{pkg: "./internal/sim/", bench: "^(BenchmarkEventQueue|BenchmarkSchedule|BenchmarkCancel|BenchmarkRunDense|BenchmarkRunSparse)$", time: "0.5s"},
	{pkg: ".", bench: "^(BenchmarkBPFRunReferenceFilter|BenchmarkFilterCompile|BenchmarkPktgenNext|BenchmarkFeedSweep)$", time: "0.5s"},
	{pkg: ".", bench: "^(BenchmarkSweepSerial|BenchmarkSweepParallel|BenchmarkSimulatedCaptureRun|BenchmarkPollModeCaptureRun|BenchmarkCaptureRun)$", time: "3x"},
	{pkg: "./internal/dispatch/", bench: "^(BenchmarkDispatchEngineCall|BenchmarkDispatchEngineCall32)$", time: "20x"},
}

type metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type envInfo struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	CPUModel  string `json:"cpu_model,omitempty"`
}

type snapshot struct {
	Schema     string             `json:"schema"`
	ID         string             `json:"id"`
	CreatedAt  string             `json:"created_at"`
	Env        envInfo            `json:"env"`
	Count      int                `json:"count"`
	Notes      string             `json:"notes,omitempty"`
	Benchmarks map[string]metrics `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: benchsnap <run|compare|latest> [flags]")
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "compare":
		return cmdCompare(args[1:], stdout, stderr)
	case "latest":
		return cmdLatest(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "benchsnap: unknown subcommand %q\n", args[0])
		return 2
	}
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "output snapshot path (required)")
	count := fs.Int("count", 3, "repetitions per benchmark; minimum ns/op is kept")
	notes := fs.String("notes", "", "free-form provenance note stored in the snapshot")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "benchsnap run: -out is required")
		return 2
	}

	samples := map[string][]metrics{}
	for _, set := range benchSets {
		outBytes, err := runGoBench(set, *count)
		fmt.Fprintf(stdout, "# go test -bench %s %s (count=%d)\n", set.bench, set.pkg, *count)
		parseBenchOutput(string(outBytes), samples)
		if err != nil {
			fmt.Fprintf(stderr, "benchsnap run: go test %s failed: %v\n%s", set.pkg, err, outBytes)
			return 1
		}
	}
	if len(samples) == 0 {
		fmt.Fprintln(stderr, "benchsnap run: no benchmark results parsed")
		return 1
	}

	snap := snapshot{
		Schema:     "benchsnap/v1",
		ID:         strings.TrimSuffix(filepath.Base(*out), ".json"),
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		Env:        collectEnv(),
		Count:      *count,
		Notes:      *notes,
		Benchmarks: aggregateMin(samples),
	}
	if err := writeSnapshot(*out, snap); err != nil {
		fmt.Fprintf(stderr, "benchsnap run: %v\n", err)
		return 1
	}
	for _, name := range sortedNames(snap.Benchmarks) {
		m := snap.Benchmarks[name]
		fmt.Fprintf(stdout, "%-22s %12.1f ns/op %10.0f B/op %8.0f allocs/op\n",
			name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return 0
}

// runGoBench shells out to go test for one benchmark set.
func runGoBench(set benchSet, count int) ([]byte, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", set.bench, "-benchtime", set.time,
		"-count", strconv.Itoa(count), "-benchmem", set.pkg)
	return cmd.CombinedOutput()
}

// parseBenchOutput extracts benchmark result lines from `go test -benchmem`
// output into samples, keyed by normalized benchmark name (Benchmark prefix
// and -GOMAXPROCS suffix stripped).
func parseBenchOutput(out string, samples map[string][]metrics) {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := normalizeName(f[0])
		var m metrics
		ok := false
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "ns/op":
				m.NsPerOp, ok = v, true
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			}
		}
		if ok {
			samples[name] = append(samples[name], m)
		}
	}
}

func normalizeName(s string) string {
	s = strings.TrimPrefix(s, "Benchmark")
	if i := strings.LastIndex(s, "-"); i > 0 {
		if _, err := strconv.Atoi(s[i+1:]); err == nil {
			s = s[:i]
		}
	}
	return s
}

// aggregateMin keeps the sample with the minimum ns/op for each benchmark:
// on a shared, noisy machine the minimum is the best estimate of the code's
// intrinsic cost (noise only ever adds time).
func aggregateMin(samples map[string][]metrics) map[string]metrics {
	agg := make(map[string]metrics, len(samples))
	for name, runs := range samples {
		best := runs[0]
		for _, m := range runs[1:] {
			if m.NsPerOp < best.NsPerOp {
				best = m
			}
		}
		agg[name] = best
	}
	return agg
}

func collectEnv() envInfo {
	env := envInfo{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, val, found := strings.Cut(line, ":"); found &&
				strings.TrimSpace(name) == "model name" {
				env.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	return env
}

func writeSnapshot(path string, snap snapshot) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return journal.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

func loadSnapshot(path string) (snapshot, error) {
	var snap snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

func cmdCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	oldPath := fs.String("old", "", "baseline snapshot (required)")
	newPath := fs.String("new", "", "candidate snapshot (required)")
	threshold := fs.Float64("threshold", 0.10, "max tolerated ns/op regression (fraction)")
	floor := fs.Float64("floor", 10, "ns/op noise floor: regressions with an absolute delta below this are not gated")
	allowMissing := fs.Bool("allow-missing", false, "downgrade tier-1 benchmarks missing from the candidate to warnings instead of failing (escape hatch for intentionally renamed or retired benchmarks)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(stderr, "benchsnap compare: -old and -new are required")
		return 2
	}
	oldSnap, err := loadSnapshot(*oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchsnap compare: %v\n", err)
		return 1
	}
	newSnap, err := loadSnapshot(*newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchsnap compare: %v\n", err)
		return 1
	}
	// ns/op is only comparable between runs on the same machine. When the
	// baseline snapshot comes from different hardware, the wall-clock gate
	// would measure the hardware, not the code — so the gate falls back to
	// allocs/op, which is deterministic across machines, and prints ns/op
	// deltas as advisory.
	sameEnv := oldSnap.Env.CPUModel == newSnap.Env.CPUModel &&
		oldSnap.Env.NumCPU == newSnap.Env.NumCPU
	if !sameEnv {
		fmt.Fprintf(stdout, "bench-gate: baseline env %q (%d CPUs) differs from %q (%d CPUs); gating on allocs/op, ns/op is advisory\n",
			oldSnap.Env.CPUModel, oldSnap.Env.NumCPU, newSnap.Env.CPUModel, newSnap.Env.NumCPU)
	}
	regressions := compareSnapshots(oldSnap, newSnap, *threshold, *floor, sameEnv, stdout)
	if *allowMissing {
		kept := regressions[:0]
		for _, r := range regressions {
			if strings.HasSuffix(r, " (missing)") {
				fmt.Fprintf(stdout, "bench-gate: WARNING: %s allowed via -allow-missing\n", r)
				continue
			}
			kept = append(kept, r)
		}
		regressions = kept
	}
	if len(regressions) == 0 {
		fmt.Fprintf(stdout, "bench-gate: OK (threshold %.0f%%, floor %.0f ns/op)\n", *threshold*100, *floor)
		return 0
	}
	if reason := os.Getenv("BENCHGATE_ACCEPT"); reason != "" {
		fmt.Fprintf(stdout, "bench-gate: %d regression(s) ACCEPTED via BENCHGATE_ACCEPT=%q\n",
			len(regressions), reason)
		return 0
	}
	fmt.Fprintf(stderr, "bench-gate: FAIL: %s regressed more than %.0f%%\n",
		strings.Join(regressions, ", "), *threshold*100)
	fmt.Fprintln(stderr, "bench-gate: set BENCHGATE_ACCEPT=<reason> to accept an intentional trade-off")
	return 1
}

// compareSnapshots prints a delta table for every tier-1 benchmark and
// returns the names that regressed beyond threshold. With gateNs the gate
// is on ns/op; otherwise (cross-machine baseline) it is on allocs/op. On
// the ns/op gate, a relative regression whose absolute delta is under floor
// ns/op is ignored: for single-digit-ns benchmarks like Cancel, a couple of
// nanoseconds of movement is timer and scheduling jitter, and a percentage
// threshold alone would make the gate flaky. A tier-1 benchmark present in
// the baseline but missing from the candidate counts as a regression (the
// gate must not pass because a benchmark was deleted).
func compareSnapshots(oldSnap, newSnap snapshot, threshold, floor float64, gateNs bool, w io.Writer) []string {
	var regressions []string
	for _, name := range tier1 {
		oldM, inOld := oldSnap.Benchmarks[name]
		newM, inNew := newSnap.Benchmarks[name]
		switch {
		case !inOld && !inNew:
			continue
		case !inOld:
			fmt.Fprintf(w, "%-22s %12s -> %10.1f ns/op (new)\n", name, "-", newM.NsPerOp)
			continue
		case !inNew:
			fmt.Fprintf(w, "%-22s %12.1f -> %10s ns/op (MISSING)\n", name, oldM.NsPerOp, "-")
			regressions = append(regressions, name+" (missing)")
			continue
		}
		nsDelta := (newM.NsPerOp - oldM.NsPerOp) / oldM.NsPerOp
		var gated float64
		if gateNs {
			if newM.NsPerOp-oldM.NsPerOp > floor {
				gated = nsDelta
			}
		} else {
			if oldM.AllocsPerOp > 0 {
				gated = (newM.AllocsPerOp - oldM.AllocsPerOp) / oldM.AllocsPerOp
			} else if newM.AllocsPerOp > 0 {
				gated = threshold + 1 // zero-alloc benchmark started allocating
			}
		}
		mark := ""
		if gated > threshold {
			mark = "  REGRESSION"
			regressions = append(regressions, name)
		}
		fmt.Fprintf(w, "%-22s %12.1f -> %10.1f ns/op  %+6.1f%%  %6.0f -> %6.0f allocs/op%s\n",
			name, oldM.NsPerOp, newM.NsPerOp, nsDelta*100, oldM.AllocsPerOp, newM.AllocsPerOp, mark)
	}
	return regressions
}

func cmdLatest(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("latest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "directory holding BENCH_*.json snapshots")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	path, err := latestSnapshot(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "benchsnap latest: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, path)
	return 0
}

// latestSnapshot returns the lexically greatest BENCH_*.json in dir; the
// zero-padded numbering scheme makes that the newest snapshot.
func latestSnapshot(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("no BENCH_*.json snapshots in %s", dir)
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

func sortedNames(m map[string]metrics) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
