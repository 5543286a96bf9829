package repro

import (
	"io"
	"testing"

	"repro/internal/bpf"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/filter"
	"repro/internal/pktgen"
	"repro/internal/trace"
)

// Each thesis table/figure has one benchmark that regenerates its series
// (at reduced fidelity; run cmd/experiment for full sweeps). Use
// `go test -bench . -v` to also print the regenerated tables.

func benchOptions() experiments.Options {
	return experiments.Options{
		Packets: 6000,
		Reps:    1,
		Seed:    1,
		Rates:   []float64{200, 500, 800, 950},
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	o := benchOptions()
	e, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = e.Run(o)
	}
	b.StopTimer()
	if testing.Verbose() {
		b.Logf("%s (%s)\n%s", e.Title, e.Paper, out)
	}
	if len(out) == 0 {
		b.Fatal("experiment produced no output")
	}
}

// --- Chapter 4: workload generation --------------------------------------

func BenchmarkFig41SizeHistogram(b *testing.B)     { benchExperiment(b, "fig4.1") }
func BenchmarkFig42TopSizes(b *testing.B)          { benchExperiment(b, "fig4.2") }
func BenchmarkFig43GeneratorFidelity(b *testing.B) { benchExperiment(b, "fig4.3") }
func BenchmarkGenRateBySize(b *testing.B)          { benchExperiment(b, "gen-rate") }

// --- Chapter 6: measurements ----------------------------------------------

func BenchmarkFig62BaselineNoSMP(b *testing.B)      { benchExperiment(b, "fig6.2-nosmp") }
func BenchmarkFig62BaselineSMP(b *testing.B)        { benchExperiment(b, "fig6.2-smp") }
func BenchmarkFig63BigBuffersNoSMP(b *testing.B)    { benchExperiment(b, "fig6.3-nosmp") }
func BenchmarkFig63BigBuffersSMP(b *testing.B)      { benchExperiment(b, "fig6.3-smp") }
func BenchmarkFig64BufferSweepNoSMP(b *testing.B)   { benchExperiment(b, "fig6.4-nosmp") }
func BenchmarkFig64BufferSweepSMP(b *testing.B)     { benchExperiment(b, "fig6.4-smp") }
func BenchmarkFig66FilterNoSMP(b *testing.B)        { benchExperiment(b, "fig6.6-nosmp") }
func BenchmarkFig66FilterSMP(b *testing.B)          { benchExperiment(b, "fig6.6-smp") }
func BenchmarkFig67TwoApps(b *testing.B)            { benchExperiment(b, "fig6.7") }
func BenchmarkFig68FourApps(b *testing.B)           { benchExperiment(b, "fig6.8") }
func BenchmarkFig69EightApps(b *testing.B)          { benchExperiment(b, "fig6.9") }
func BenchmarkFig610MemcpyNoSMP(b *testing.B)       { benchExperiment(b, "fig6.10-nosmp") }
func BenchmarkFig610MemcpySMP(b *testing.B)         { benchExperiment(b, "fig6.10-smp") }
func BenchmarkFigB2Memcpy25(b *testing.B)           { benchExperiment(b, "figB.2") }
func BenchmarkFig611GzwriteNoSMP(b *testing.B)      { benchExperiment(b, "fig6.11-nosmp") }
func BenchmarkFig611GzwriteSMP(b *testing.B)        { benchExperiment(b, "fig6.11-smp") }
func BenchmarkFigB3Gzwrite9(b *testing.B)           { benchExperiment(b, "figB.3") }
func BenchmarkFig612PipeGzip(b *testing.B)          { benchExperiment(b, "fig6.12") }
func BenchmarkFig613DiskSpeed(b *testing.B)         { benchExperiment(b, "fig6.13") }
func BenchmarkFig614HeaderToDiskNoSMP(b *testing.B) { benchExperiment(b, "fig6.14-nosmp") }
func BenchmarkFig614HeaderToDiskSMP(b *testing.B)   { benchExperiment(b, "fig6.14-smp") }
func BenchmarkFig615MmapNoSMP(b *testing.B)         { benchExperiment(b, "fig6.15-nosmp") }
func BenchmarkFig615MmapSMP(b *testing.B)           { benchExperiment(b, "fig6.15-smp") }
func BenchmarkFig616Hyperthreading(b *testing.B)    { benchExperiment(b, "fig6.16") }
func BenchmarkFigB1OSVersion(b *testing.B)          { benchExperiment(b, "figB.1") }
func BenchmarkSelfSimilarAblation(b *testing.B)     { benchExperiment(b, "selfsim") }

// --- §7.2 future-work extensions and model ablations ----------------------

func BenchmarkExtPFRing(b *testing.B)        { benchExperiment(b, "ext-pfring") }
func BenchmarkExtBSDMmap(b *testing.B)       { benchExperiment(b, "ext-bsdmmap") }
func BenchmarkExtWorkerThreads(b *testing.B) { benchExperiment(b, "ext-workers") }
func BenchmarkExt10GbE(b *testing.B)         { benchExperiment(b, "ext-10gbe") }
func BenchmarkExtProductionDay(b *testing.B) { benchExperiment(b, "ext-production") }
func BenchmarkExtModeration(b *testing.B)    { benchExperiment(b, "ext-moderation") }
func BenchmarkAblHousekeeping(b *testing.B)  { benchExperiment(b, "abl-housekeeping") }
func BenchmarkAblFSBContention(b *testing.B) { benchExperiment(b, "abl-contention") }

func BenchmarkExtModern(b *testing.B) { benchExperiment(b, "ext-modern") }

// --- microbenchmarks of the building blocks -------------------------------

func BenchmarkBPFRunReferenceFilter(b *testing.B) {
	prog := filter.MustCompile(filter.ReferenceFilterExpr, 1515)
	g := pktgen.New(1)
	g.Config.PktSize = 660
	p, _ := g.Next()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := prog.Run(p.Data)
		if err != nil || res.Accept == 0 {
			b.Fatal("filter rejected the generated packet")
		}
	}
}

func BenchmarkFilterCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := filter.Compile(filter.ReferenceFilterExpr, 1515); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistSample(b *testing.B) {
	d, err := dist.Build(trace.MWNCounts(1_000_000), dist.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	rng := dist.NewRNG(1)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += d.Sample(rng)
	}
	_ = sink
}

func BenchmarkPktgenNext(b *testing.B) {
	d, err := dist.Build(trace.MWNCounts(1_000_000), dist.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	g := pktgen.New(1)
	g.LoadDistribution(d)
	g.Config.Count = 0 // unlimited
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatal("generator stopped")
		}
	}
}

// BenchmarkFeedSweep times the feed layer of one thesis rate sweep: a
// fresh cache, then a feed and a full replay of one MWN train at each of
// the 19 rates of Chapter 6 (50–950 Mbit/s).
func BenchmarkFeedSweep(b *testing.B) {
	b.ReportAllocs()
	var last int64
	for i := 0; i < b.N; i++ {
		c := core.NewFeedCache(0)
		for r := 50.0; r <= 950; r += 50 {
			src := c.Get(core.Workload{Packets: 10000, Seed: 1, TargetRate: r * 1e6}).Replay()
			for p, ok := src.Next(); ok; p, ok = src.Next() {
				last = int64(p.At)
			}
		}
	}
	if last == 0 {
		b.Fatal("no packet departed")
	}
}

// BenchmarkSweepSerial vs BenchmarkSweepParallel document the speedup of
// the parallel sweep engine. Both run the identical cell set (4 systems ×
// 4 rates × 2 reps); the parallel variant uses one worker per CPU. The
// output tables are byte-identical (see TestParallelSweepDeterminism).
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	cfgs := Sniffers()
	w := Workload{Packets: 4000, Seed: 1}
	rates := []float64{200, 500, 800, 950}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := SweepParallel(cfgs, rates, w, 2, workers)
		if len(s) != 4 {
			b.Fatalf("got %d series", len(s))
		}
	}
}

func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 0) }
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, -1) }

func BenchmarkSimulatedCaptureRun(b *testing.B) {
	w := Workload{Packets: 5000, TargetRate: 800e6, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := Run(Moorhen(), w)
		if st.Generated == 0 {
			b.Fatal("no packets")
		}
	}
}

// BenchmarkPollModeCaptureRun exercises the batched poll-mode path at a
// multi-gigabit rate: busy-spin PMD cores, RSS ring service in bursts,
// zero-copy app ring reads. Tier-1 in the bench gate — the idle-poll
// loop makes event volume sensitive to scheduler regressions.
func BenchmarkPollModeCaptureRun(b *testing.B) {
	w := Workload{Packets: 5000, TargetRate: 25000e6, Seed: 1,
		Flows: 256, LineRate: 100e9, GenCostNS: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := Run(Osprey(), w)
		if st.Generated == 0 {
			b.Fatal("no packets")
		}
	}
}

func BenchmarkPcapRoundTrip(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf nopBuffer
		if err := SynthesizeTrace(&buf, 200, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOfflineFilterScan(b *testing.B) {
	var trc memBuffer
	if err := SynthesizeTrace(&trc, 2000, 1, 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(trc.data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := OpenOffline(&readerOf{data: trc.data})
		if err != nil {
			b.Fatal(err)
		}
		if err := h.SetFilter("udp and len > 100"); err != nil {
			b.Fatal(err)
		}
		for {
			if _, _, err := h.ReadPacket(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBPFValidate(b *testing.B) {
	prog := filter.MustCompile(filter.ReferenceFilterExpr, 1515)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bpf.Program(prog).Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// nopBuffer discards writes but counts them.
type nopBuffer struct{ n int }

func (b *nopBuffer) Write(p []byte) (int, error) { b.n += len(p); return len(p), nil }

// memBuffer collects writes.
type memBuffer struct{ data []byte }

func (b *memBuffer) Write(p []byte) (int, error) { b.data = append(b.data, p...); return len(p), nil }

// readerOf reads from a byte slice (bytes.Reader without the import).
type readerOf struct {
	data []byte
	off  int
}

func (r *readerOf) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}
