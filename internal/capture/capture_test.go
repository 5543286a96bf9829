package capture

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/dist"
	"repro/internal/filter"
	"repro/internal/pktgen"
	"repro/internal/trace"
)

// mwn is the measurement distribution, built once for all tests.
var mwn = func() *dist.Distribution {
	d, err := dist.Build(trace.MWNCounts(1_000_000), dist.DefaultParams())
	if err != nil {
		panic(err)
	}
	return d
}()

// newGen builds a generator with the realistic size distribution.
func newGen(packets int, rateMbit float64, seed uint64) *pktgen.Generator {
	g := pktgen.New(seed)
	g.Config.Count = packets
	g.Config.TargetRate = rateMbit * 1e6
	g.LoadDistribution(mwn)
	return g
}

// scaled shrinks the time constants and buffers of a config for short test
// runs (mirrors core.Prepare's time compression).
func scaled(cfg Config, packets int) Config {
	s := float64(packets) / 1_000_000
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	if cfg.BufferBytes == 0 {
		if cfg.OS == Linux {
			cfg.BufferBytes = DefaultLinuxRcvbuf
		} else {
			cfg.BufferBytes = DefaultBSDBuffer
		}
	}
	scaleB := func(b int) int {
		v := int(float64(b) * s)
		if v < 4096 {
			v = 4096
		}
		return v
	}
	cfg.BufferBytes = scaleB(cfg.BufferBytes)
	cfg.Costs.HousekeepNS *= s
	cfg.Costs.HousekeepPeriodNS *= s
	cfg.Costs.TimesliceNS *= s
	cfg.Costs.ReadTimeoutNS *= s
	cfg.Costs.PipeBufBytes = scaleB(cfg.Costs.PipeBufBytes)
	cfg.Costs.WorkerQueueBytes = scaleB(cfg.Costs.WorkerQueueBytes)
	cfg.Costs.NICFifoBytes = scaleB(cfg.Costs.NICFifoBytes)
	if cfg.DiskQueueBytes == 0 {
		cfg.DiskQueueBytes = scaleB(32 << 20)
	}
	return cfg
}

func moorhenCfg() Config {
	return Config{Name: "moorhen", Arch: arch.Opteron244(), OS: FreeBSD, BufferBytes: BigBSDBuffer}
}
func swanCfg() Config {
	return Config{Name: "swan", Arch: arch.Opteron244(), OS: Linux, BufferBytes: BigLinuxRcvbuf}
}

func run(t *testing.T, cfg Config, packets int, rate float64) Stats {
	t.Helper()
	sys := NewSystem(scaled(cfg, packets))
	return sys.Run(newGen(packets, rate, 1))
}

// TestKpktSize: carrying the flow hash grows a queued packet by at most
// its 8 bytes.
func TestKpktSize(t *testing.T) {
	if got := unsafe.Sizeof(kpkt{}); got > 48 {
		t.Fatalf("kpkt is %d bytes, want at most 48", got)
	}
}

func TestMoorhenCapturesEverything(t *testing.T) {
	// "moorhen ... loses nearly no packets in single processor mode and no
	// packet at all in dual processor mode."
	for _, ncpu := range []int{1, 2} {
		cfg := moorhenCfg()
		cfg.NumCPUs = ncpu
		st := run(t, cfg, 10000, 950)
		if r := st.CaptureRate(); r < 98.5 {
			t.Errorf("ncpu=%d: capture rate %.2f%%, want ≈100%%", ncpu, r)
		}
	}
}

func TestLinuxKeepsUpAtModerateRates(t *testing.T) {
	cfg := swanCfg()
	cfg.NumCPUs = 2
	st := run(t, cfg, 10000, 400)
	if r := st.CaptureRate(); r < 99.0 {
		t.Errorf("capture rate %.2f%% at 400 Mbit/s, want ≈100%%", r)
	}
}

func TestPacketConservationLinux(t *testing.T) {
	cfg := swanCfg()
	cfg.NumCPUs = 1
	sys := NewSystem(scaled(cfg, 20000))
	st := sys.Run(newGen(20000, 950, 3))
	ls := sys.stack.(*linuxStack)
	sk := ls.socks[0]
	nic := st.Ledger.NICPackets()
	if got := nic + sys.NIC.Delivered; got != st.Generated {
		t.Fatalf("NIC conservation: drops %d + delivered %d != generated %d",
			nic, sys.NIC.Delivered, st.Generated)
	}
	backlog, rcvbuf := st.Ledger.Drops[CauseBacklog].Packets, st.Ledger.Drops[CauseRcvbuf].Packets
	if got := backlog + rcvbuf + sk.Enqueued; got != sys.NIC.Delivered {
		t.Fatalf("stack conservation: %d backlog + %d sock + %d enq != %d delivered",
			backlog, rcvbuf, sk.Enqueued, sys.NIC.Delivered)
	}
	if sk.Enqueued != st.AppCaptured[0] {
		t.Fatalf("drain incomplete: enqueued %d, captured %d", sk.Enqueued, st.AppCaptured[0])
	}
	if sk.queue.len() != 0 || sk.used != 0 {
		t.Fatalf("socket not drained: %d packets, %d bytes", sk.queue.len(), sk.used)
	}
}

func TestPacketConservationBSD(t *testing.T) {
	cfg := moorhenCfg()
	cfg.NumCPUs = 1
	sys := NewSystem(scaled(cfg, 20000))
	st := sys.Run(newGen(20000, 950, 3))
	bs := sys.stack.(*bsdStack)
	att := bs.atts[0]
	drops, nic := st.Ledger.Drops[CauseBPFBuf].Packets, st.Ledger.NICPackets()
	if att.Stored+drops+nic != st.Generated {
		t.Fatalf("conservation: stored %d + drops %d + nic %d != generated %d",
			att.Stored, drops, nic, st.Generated)
	}
	if att.Stored != st.AppCaptured[0] {
		t.Fatalf("drain incomplete: stored %d, captured %d", att.Stored, st.AppCaptured[0])
	}
	if att.store.bytes != 0 || att.ready {
		t.Fatal("buffers not drained at end of run")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() Stats {
		cfg := swanCfg()
		cfg.NumCPUs = 2
		sys := NewSystem(scaled(cfg, 5000))
		return sys.Run(newGen(5000, 800, 77))
	}
	a, b := mk(), mk()
	if a.Generated != b.Generated || a.AppCaptured[0] != b.AppCaptured[0] ||
		a.BusyTime != b.BusyTime || a.WallTime != b.WallTime {
		t.Fatalf("runs with identical seeds diverged: %+v vs %+v", a, b)
	}
}

func TestRejectingFilterCapturesNothing(t *testing.T) {
	cfg := moorhenCfg()
	cfg.Filter = filter.MustCompile("tcp", 1515) // generator sends UDP only
	st := run(t, cfg, 3000, 400)
	if st.AppCaptured[0] != 0 {
		t.Fatalf("captured %d packets through a rejecting filter", st.AppCaptured[0])
	}
	if st.BusyTime == 0 {
		t.Fatal("filtering consumed no CPU at all")
	}
}

func TestReferenceFilterAcceptsAllGenerated(t *testing.T) {
	for _, os := range []OS{Linux, FreeBSD} {
		cfg := Config{Name: "t", Arch: arch.Opteron244(), OS: os,
			BufferBytes: BigLinuxRcvbuf,
			Filter:      filter.MustCompile(filter.ReferenceFilterExpr, 1515)}
		st := run(t, cfg, 3000, 300)
		if r := st.CaptureRate(); r < 99.9 {
			t.Errorf("%v: reference filter capture rate %.2f%%, want 100%%", os, r)
		}
	}
}

func TestFilterCostsCPU(t *testing.T) {
	base := run(t, moorhenCfg(), 5000, 500)
	f := moorhenCfg()
	f.Filter = filter.MustCompile(filter.ReferenceFilterExpr, 1515)
	withF := run(t, f, 5000, 500)
	if withF.BusyTime <= base.BusyTime {
		t.Fatalf("filter did not add CPU: %v vs %v", withF.BusyTime, base.BusyTime)
	}
	// "using BPF filters is cheap": under 15% extra CPU.
	if extra := float64(withF.BusyTime)/float64(base.BusyTime) - 1; extra > 0.15 {
		t.Errorf("reference filter added %.0f%% CPU, want cheap (<15%%)", extra*100)
	}
}

func TestOverloadDropsAndLivelock(t *testing.T) {
	// A single CPU with heavy per-packet app load (zlib 9) must shed most
	// packets at high rate, yet the kernel keeps running (livelock-ish:
	// interrupt work continues, the reader starves, buffers overflow).
	cfg := swanCfg()
	cfg.NumCPUs = 1
	cfg.Load.ZlibLevel = 9
	sys := NewSystem(scaled(cfg, 8000))
	st := sys.Run(newGen(8000, 900, 5))
	if r := st.CaptureRate(); r > 40 {
		t.Fatalf("capture rate %.2f%% under zlib-9 overload, want heavy loss", r)
	}
	// Overload loss must be booked as NIC or buffer drops, not as, say,
	// abandoned remnants.
	l := st.Ledger
	if l.NICPackets()+l.Drops[CauseBacklog].Packets+l.Drops[CauseRcvbuf].Packets+
		l.Drops[CauseBPFBuf].Packets == 0 {
		t.Fatal("no NIC or buffer drops recorded despite overload")
	}
	if got := st.CaptureRate(); math.IsNaN(got) {
		t.Fatal("NaN capture rate")
	}
}

func TestXeonZlibBeatsOpteron(t *testing.T) {
	// §6.3.4: "each of the Intel systems performs better than the
	// corresponding AMD system" under zlib load.
	run1 := func(a arch.Profile) float64 {
		cfg := Config{Name: "t", Arch: a, OS: FreeBSD, BufferBytes: BigBSDBuffer, NumCPUs: 2}
		cfg.Load.ZlibLevel = 3
		st := run(t, cfg, 10000, 700)
		return st.CaptureRate()
	}
	amd := run1(arch.Opteron244())
	intel := run1(arch.Xeon306())
	if intel < amd {
		t.Fatalf("zlib-3: Intel %.2f%% < AMD %.2f%%, want Intel ahead", intel, amd)
	}
}

func TestMmapPatchImproves(t *testing.T) {
	// §6.3.6: "a rigorous performance improvement can be measured".
	stock := Config{Name: "snipe", Arch: arch.Xeon306(), OS: Linux,
		BufferBytes: BigLinuxRcvbuf, NumCPUs: 1}
	st1 := run(t, stock, 15000, 950)
	patched := stock
	patched.MmapPatch = true
	st2 := run(t, patched, 15000, 950)
	if st2.CaptureRate() < st1.CaptureRate() {
		t.Fatalf("mmap %.2f%% < stock %.2f%%", st2.CaptureRate(), st1.CaptureRate())
	}
	if st2.BusyTime >= st1.BusyTime {
		t.Fatalf("mmap did not reduce CPU: %v vs %v", st2.BusyTime, st1.BusyTime)
	}
}

func TestBSDFairnessAcrossApps(t *testing.T) {
	// §6.3.3 / [Sch04]: FreeBSD shares packets evenly across applications
	// (≈5% spread) even under load.
	cfg := moorhenCfg()
	cfg.NumCPUs = 2
	cfg.NumApps = 4
	st := run(t, cfg, 15000, 800)
	worst, avg, best := st.AppRates()
	if avg < 30 {
		t.Fatalf("average rate %.2f%% too low to judge fairness", avg)
	}
	if best-worst > 10 {
		t.Fatalf("FreeBSD spread %.2f%%..%.2f%%, want tight", worst, best)
	}
}

func TestLinuxUnfairnessAcrossApps(t *testing.T) {
	// Under overload Linux distributes very unevenly and collapses.
	cfg := swanCfg()
	cfg.NumCPUs = 2
	cfg.NumApps = 8
	st := run(t, cfg, 15000, 950)
	worst, avg, best := st.AppRates()
	bsd := moorhenCfg()
	bsd.NumCPUs = 2
	bsd.NumApps = 8
	stB := run(t, bsd, 15000, 950)
	_, avgB, _ := stB.AppRates()
	if avg >= avgB {
		t.Fatalf("8 apps: Linux avg %.2f%% >= FreeBSD avg %.2f%%, want Linux collapse", avg, avgB)
	}
	if best-worst < 5 {
		t.Logf("note: Linux spread %.2f..%.2f unexpectedly tight", worst, best)
	}
}

func TestHeaderWriteIsCheap(t *testing.T) {
	// §6.3.5: writing the first 76 bytes of every packet "is cheap".
	base := moorhenCfg()
	base.NumCPUs = 2
	st1 := run(t, base, 10000, 950)
	wr := base
	wr.Load.WriteSnapLen = 76
	st2 := run(t, wr, 10000, 950)
	if st1.CaptureRate()-st2.CaptureRate() > 2.0 {
		t.Fatalf("header writing cost %.2f%% capture (from %.2f%% to %.2f%%)",
			st1.CaptureRate()-st2.CaptureRate(), st1.CaptureRate(), st2.CaptureRate())
	}
}

func TestFullWriteExceedsDisk(t *testing.T) {
	// Writing whole packets at ≈119 MB/s exceeds the ~100 MB/s disk: the
	// writer must block and shed load.
	cfg := moorhenCfg()
	cfg.NumCPUs = 2
	cfg.Load.WriteFull = true
	sys := NewSystem(scaled(cfg, 20000))
	st := sys.Run(newGen(20000, 950, 9))
	if r := st.CaptureRate(); r > 97 {
		t.Fatalf("full-packet writing captured %.2f%% at line rate; disk should bottleneck", r)
	}
	if sys.Disk.Written == 0 {
		t.Fatal("nothing reached the disk")
	}
}

func TestPipeGzipUsesBothCPUs(t *testing.T) {
	cfg := moorhenCfg()
	cfg.NumCPUs = 2
	cfg.Load.PipeGzip = 3
	sys := NewSystem(scaled(cfg, 8000))
	st := sys.Run(newGen(8000, 500, 4))
	if st.CaptureRate() < 50 {
		t.Fatalf("pipe-to-gzip capture rate %.2f%%", st.CaptureRate())
	}
	a := sys.apps[0]
	if a.pipe.BytesOut == 0 || a.pipe.BytesOut != a.pipe.BytesIn {
		t.Fatalf("pipe not drained: in %d out %d", a.pipe.BytesIn, a.pipe.BytesOut)
	}
	// The gzip process must have run on the second CPU at least partly.
	if sys.Machine.CPUs[1].BusyTotal() == 0 {
		t.Fatal("second CPU unused despite separate gzip process")
	}
}

func TestHyperthreadingTopology(t *testing.T) {
	cfg := Config{Name: "snipe", Arch: arch.Xeon306(), OS: Linux,
		NumCPUs: 2, Hyperthreading: true, BufferBytes: BigLinuxRcvbuf}
	sys := NewSystem(scaled(cfg, 1000))
	if len(sys.Machine.CPUs) != 4 {
		t.Fatalf("HT machine has %d CPUs, want 4", len(sys.Machine.CPUs))
	}
	if sys.Machine.CPUs[0].Core != sys.Machine.CPUs[1].Core {
		t.Fatal("logical CPUs 0/1 should share core 0")
	}
	// AMD has no HT: requesting it is ignored.
	amd := Config{Name: "swan", Arch: arch.Opteron244(), OS: Linux,
		NumCPUs: 2, Hyperthreading: true}
	sysA := NewSystem(scaled(amd, 1000))
	if len(sysA.Machine.CPUs) != 2 {
		t.Fatalf("Opteron HT machine has %d CPUs, want 2", len(sysA.Machine.CPUs))
	}
}

func TestHyperthreadingNeutral(t *testing.T) {
	// §6.3.7: "neither a noticeable amelioration nor deterioration".
	base := Config{Name: "snipe", Arch: arch.Xeon306(), OS: Linux,
		NumCPUs: 2, BufferBytes: BigLinuxRcvbuf}
	st1 := run(t, base, 10000, 900)
	ht := base
	ht.Hyperthreading = true
	st2 := run(t, ht, 10000, 900)
	if d := math.Abs(st1.CaptureRate() - st2.CaptureRate()); d > 5 {
		t.Fatalf("HT changed capture rate by %.2f%%, want neutral", d)
	}
}

func TestSnaplenLimitsCaplen(t *testing.T) {
	cfg := moorhenCfg()
	cfg.Snaplen = 96
	sys := NewSystem(scaled(cfg, 2000))
	st := sys.Run(newGen(2000, 300, 2))
	if st.CaptureRate() < 99.9 {
		t.Fatalf("capture rate %.2f%%", st.CaptureRate())
	}
	// Indirect check: with a 96-byte snaplen the BSD buffers hold far more
	// packets per rotation, so the same byte budget yields fewer drops
	// than it would otherwise. Here we just assert caplen plumbed through.
	bs := sys.stack.(*bsdStack)
	if bs.atts[0].Stored == 0 {
		t.Fatal("nothing stored")
	}
}

func TestBonnie(t *testing.T) {
	r := Bonnie(Config{Name: "x", Arch: arch.Opteron244()})
	if r.WriteMBps != arch.Opteron244().DiskWriteMBps {
		t.Fatalf("bonnie rate = %v", r.WriteMBps)
	}
	if r.CPUPct <= 0 || r.CPUPct >= 100 {
		t.Fatalf("bonnie cpu = %v", r.CPUPct)
	}
	// None of the systems writes at the 125 MB/s a loaded GigE delivers.
	for _, p := range []arch.Profile{arch.Opteron244(), arch.Xeon306()} {
		if p.DiskWriteMBps >= 125 {
			t.Errorf("%s writes at %v MB/s ≥ line speed; thesis says none can", p.Name, p.DiskWriteMBps)
		}
	}
}

func TestNICRingOverflow(t *testing.T) {
	// Absurdly slow interrupt path must overflow the 256-slot ring.
	cfg := moorhenCfg()
	cfg.Costs = DefaultCosts()
	cfg.Costs.DriverRxNS = 100_000 // 100µs per packet
	sys := NewSystem(cfg)
	st := sys.Run(newGen(5000, 950, 1))
	nic := st.Ledger.NICPackets()
	if nic == 0 {
		t.Fatal("no NIC drops despite a 100µs interrupt path")
	}
	if nic+sys.NIC.Delivered != st.Generated {
		t.Fatalf("NIC conservation: drops %d + delivered %d != generated %d",
			nic, sys.NIC.Delivered, st.Generated)
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Generated: 1000, AppCaptured: []uint64{500, 1000}}
	w, a, b := s.AppRates()
	if w != 50 || b != 100 || a != 75 {
		t.Fatalf("AppRates = %v %v %v", w, a, b)
	}
	if r := s.CaptureRate(); r != 75 {
		t.Fatalf("CaptureRate = %v", r)
	}
	var empty Stats
	if empty.CaptureRate() != 0 || empty.CPUUsage() != 0 {
		t.Fatal("zero stats should yield zeros")
	}
}

func TestWorkerThreadsImproveHeavyAnalysis(t *testing.T) {
	// §7.2 / [DV04]: spreading the analysis over worker threads uses the
	// second CPU and lifts the capture rate under heavy load.
	base := moorhenCfg()
	base.NumCPUs = 2
	base.Load.ZlibLevel = 3
	inline := run(t, base, 12000, 800)
	mt := base
	mt.Load.Workers = 2
	threaded := run(t, mt, 12000, 800)
	if threaded.CaptureRate() <= inline.CaptureRate()+5 {
		t.Fatalf("workers %.2f%% vs inline %.2f%%, want clear improvement",
			threaded.CaptureRate(), inline.CaptureRate())
	}
}

func TestWorkerBackpressureBounds(t *testing.T) {
	// With 1 CPU, workers cannot help; the backpressure bound must keep
	// the system stable (no runaway queues, run terminates, conservation).
	cfg := swanCfg()
	cfg.NumCPUs = 1
	cfg.Load.ZlibLevel = 9
	cfg.Load.Workers = 4
	sys := NewSystem(scaled(cfg, 6000))
	st := sys.Run(newGen(6000, 900, 2))
	if st.Generated != 6000 {
		t.Fatalf("generated %d", st.Generated)
	}
	for _, a := range sys.apps {
		if a.workerOutstanding != 0 {
			t.Fatalf("worker queue not drained: %d bytes", a.workerOutstanding)
		}
	}
}

func TestPFRingBeatsStockAndMmap(t *testing.T) {
	// The ring stack removes the skb/socket machinery on top of mmap's
	// copy saving: stock <= mmap <= ring in capture, ring cheapest in CPU.
	stock := Config{Name: "snipe", Arch: arch.Xeon306(), OS: Linux,
		BufferBytes: BigLinuxRcvbuf, NumCPUs: 1}
	s1 := run(t, stock, 15000, 950)
	mm := stock
	mm.MmapPatch = true
	s2 := run(t, mm, 15000, 950)
	ring := stock
	ring.PFRing = true
	s3 := run(t, ring, 15000, 950)
	if s2.CaptureRate() < s1.CaptureRate() || s3.CaptureRate() < s2.CaptureRate() {
		t.Fatalf("ordering broken: stock %.2f, mmap %.2f, ring %.2f",
			s1.CaptureRate(), s2.CaptureRate(), s3.CaptureRate())
	}
	if s3.BusyTime >= s1.BusyTime {
		t.Fatalf("ring stack did not reduce CPU: %v vs %v", s3.BusyTime, s1.BusyTime)
	}
}

func TestBSDMmapReducesCPU(t *testing.T) {
	// §7.2: a memory-mapped read for FreeBSD "could boost the capturing
	// rates and reduce the CPU load".
	stock := Config{Name: "flamingo", Arch: arch.Xeon306(), OS: FreeBSD,
		BufferBytes: BigBSDBuffer, NumCPUs: 1, KernelCostFactor: 1.9}
	s1 := run(t, stock, 15000, 950)
	mm := stock
	mm.MmapPatch = true
	s2 := run(t, mm, 15000, 950)
	if s2.CaptureRate() < s1.CaptureRate() {
		t.Fatalf("mmap capture %.2f%% < stock %.2f%%", s2.CaptureRate(), s1.CaptureRate())
	}
	if s2.BusyTime >= s1.BusyTime {
		t.Fatalf("mmap did not reduce CPU: %v vs %v", s2.BusyTime, s1.BusyTime)
	}
}

func TestFlowTrackLoadCostsCPU(t *testing.T) {
	base := moorhenCfg()
	base.NumCPUs = 2
	plain := run(t, base, 8000, 700)
	ft := base
	ft.Load.FlowTrack = true
	tracked := run(t, ft, 8000, 700)
	if tracked.BusyTime <= plain.BusyTime {
		t.Fatalf("flow tracking added no CPU: %v vs %v", tracked.BusyTime, plain.BusyTime)
	}
	// It is light bookkeeping, not a heavy load: capture stays intact.
	if tracked.CaptureRate() < plain.CaptureRate()-1 {
		t.Fatalf("flow tracking cost %.2f%% capture", plain.CaptureRate()-tracked.CaptureRate())
	}
}

func TestInterruptModerationTimestamps(t *testing.T) {
	// §2.2.1: moderation batches interrupts; timestamps degrade and ties
	// (identical stamps for consecutive packets) appear.
	base := moorhenCfg()
	base.NumCPUs = 2
	sysA := NewSystem(scaled(base, 10000))
	noMod := sysA.Run(newGen(10000, 700, 3))

	mod := scaled(base, 10000)
	mod.Costs.ModerationDelayNS = 100_000 // 100 µs coalescing
	sysB := NewSystem(mod)
	withMod := sysB.Run(newGen(10000, 700, 3))

	if withMod.TsErrMeanUS() <= noMod.TsErrMeanUS() {
		t.Fatalf("moderation did not increase timestamp error: %.2fµs vs %.2fµs",
			withMod.TsErrMeanUS(), noMod.TsErrMeanUS())
	}
	if withMod.TsErrMeanUS() < 20 {
		t.Fatalf("100µs moderation should cost tens of µs of stamp accuracy, got %.2fµs",
			withMod.TsErrMeanUS())
	}
	if withMod.Stamped == 0 || noMod.Stamped == 0 {
		t.Fatal("no packets stamped")
	}
	// Capture itself must not suffer (moderation helps the interrupt path).
	if withMod.CaptureRate() < noMod.CaptureRate()-1 {
		t.Fatalf("moderation cost capture: %.2f%% vs %.2f%%",
			withMod.CaptureRate(), noMod.CaptureRate())
	}
}
