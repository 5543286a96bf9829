package capture

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

// TestScenarioMatrix runs a grid of configurations and checks, for every
// cell: determinism across two runs, packet conservation through every
// queue, and fully drained buffers at the end.
func TestScenarioMatrix(t *testing.T) {
	type cell struct {
		os    OS
		cpus  int
		apps  int
		mmap  bool
		load  AppLoad
		label string
	}
	var cells []cell
	for _, os := range []OS{Linux, FreeBSD} {
		for _, cpus := range []int{1, 2} {
			for _, apps := range []int{1, 3} {
				cells = append(cells, cell{os, cpus, apps, false, AppLoad{},
					fmt.Sprintf("%v-%dcpu-%dapp", os, cpus, apps)})
			}
		}
	}
	cells = append(cells,
		cell{Linux, 2, 1, true, AppLoad{}, "linux-mmap"},
		cell{FreeBSD, 2, 1, true, AppLoad{}, "bsd-mmap"},
		cell{Linux, 2, 1, false, AppLoad{MemcpyCount: 25}, "linux-memcpy"},
		cell{FreeBSD, 2, 1, false, AppLoad{ZlibLevel: 3}, "bsd-zlib"},
		cell{FreeBSD, 2, 1, false, AppLoad{WriteSnapLen: 76}, "bsd-disk"},
		cell{Linux, 2, 1, false, AppLoad{Workers: 2, ZlibLevel: 3}, "linux-workers"},
		cell{FreeBSD, 2, 1, false, AppLoad{FlowTrack: true}, "bsd-flows"},
	)
	for _, c := range cells {
		c := c
		t.Run(c.label, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Name: c.label, Arch: arch.Opteron244(), OS: c.os,
				NumCPUs: c.cpus, NumApps: c.apps, MmapPatch: c.mmap,
				BufferBytes: 2 << 20, Load: c.load}
			run1 := runMatrix(t, cfg)
			run2 := runMatrix(t, cfg)
			if run1.capturedSum != run2.capturedSum || run1.busy != run2.busy {
				t.Fatalf("nondeterministic: %+v vs %+v", run1, run2)
			}
		})
	}
}

type matrixResult struct {
	capturedSum uint64
	busy        sim.Time
}

func runMatrix(t *testing.T, cfg Config) matrixResult {
	t.Helper()
	cfg.Costs = DefaultCosts()
	cfg.Costs.HousekeepNS *= 0.01
	cfg.Costs.HousekeepPeriodNS *= 0.01
	cfg.Costs.TimesliceNS *= 0.01
	cfg.Costs.ReadTimeoutNS *= 0.01
	cfg.Costs.WorkerQueueBytes = 128 << 10
	cfg.DiskQueueBytes = 512 << 10
	sys := NewSystem(cfg)
	st := sys.Run(newGen(6000, 900, 42))

	// Conservation and drained-buffer invariants.
	switch stk := sys.stack.(type) {
	case *linuxStack:
		var enq uint64
		for _, sk := range stk.socks {
			enq += sk.Enqueued
			if sk.used < 0 {
				t.Fatalf("negative rcvbuf accounting: %d", sk.used)
			}
			if len(sk.queue) != 0 {
				t.Fatalf("socket not drained: %d packets", len(sk.queue))
			}
		}
		napps := uint64(len(stk.socks))
		delivered := (sys.NIC.Delivered - st.Ledger.Drops[CauseBacklog].Packets) * napps
		if drops := st.Ledger.Drops[CauseRcvbuf].Packets; enq+drops != delivered {
			t.Fatalf("conservation: enq %d + drops %d != delivered %d", enq, drops, delivered)
		}
		var captured uint64
		for _, c := range st.AppCaptured {
			captured += c
		}
		if captured != enq {
			t.Fatalf("captured %d != enqueued %d after drain", captured, enq)
		}
	case *bsdStack:
		var stored, captured uint64
		for i, att := range stk.atts {
			stored += att.Stored
			captured += st.AppCaptured[i]
			if att.store.bytes != 0 || att.ready {
				t.Fatalf("attachment %d not drained", i)
			}
		}
		drops := st.Ledger.Drops[CauseBPFBuf].Packets
		if stored+drops != sys.NIC.Delivered*uint64(len(stk.atts)) {
			t.Fatalf("conservation: stored %d + drops %d != delivered %d × %d apps",
				stored, drops, sys.NIC.Delivered, len(stk.atts))
		}
		if captured != stored {
			t.Fatalf("captured %d != stored %d after drain", captured, stored)
		}
	}
	if nic := st.Ledger.NICPackets(); nic+sys.NIC.Delivered != st.Generated {
		t.Fatalf("NIC conservation: %d + %d != %d", nic, sys.NIC.Delivered, st.Generated)
	}

	var capturedSum uint64
	for _, c := range st.AppCaptured {
		capturedSum += c
	}
	return matrixResult{capturedSum, st.BusyTime}
}

// TestBufferBoundNeverExceeded samples the kernel buffers during a
// saturating run and asserts they never exceed their configured budgets.
func TestBufferBoundNeverExceeded(t *testing.T) {
	for _, os := range []OS{Linux, FreeBSD} {
		cfg := Config{Name: "t", Arch: arch.Xeon306(), OS: os,
			NumCPUs: 1, BufferBytes: 256 << 10}
		cfg.Costs = DefaultCosts()
		cfg.Costs.HousekeepNS = 0
		cfg.Load.ZlibLevel = 6 // guarantee overload
		sys := NewSystem(cfg)
		violations := 0
		var tick func()
		tick = func() {
			switch stk := sys.stack.(type) {
			case *linuxStack:
				for _, sk := range stk.socks {
					if sk.used < 0 || sk.used > cfg.BufferBytes+2048 {
						violations++
					}
				}
			case *bsdStack:
				for _, att := range stk.atts {
					if att.store.bytes > cfg.BufferBytes || att.hold.bytes > cfg.BufferBytes {
						violations++
					}
				}
			}
			if !sys.Done() {
				sys.Sim.After(sim.Millisecond, tick)
			}
		}
		sys.Sim.After(sim.Millisecond, tick)
		sys.Run(newGen(8000, 950, 7))
		if violations > 0 {
			t.Fatalf("%v: %d buffer bound violations", os, violations)
		}
	}
}

// TestSmallerSnaplenRelievesBufferPressure pins that truncating captures
// stretches a tight buffer further (more packets fit per buffer).
func TestSmallerSnaplenRelievesBufferPressure(t *testing.T) {
	base := Config{Name: "t", Arch: arch.Opteron244(), OS: FreeBSD,
		NumCPUs: 1, BufferBytes: 64 << 10}
	base.Costs = DefaultCosts()
	base.Load.MemcpyCount = 40 // slow the reader so buffers matter
	full := base
	full.Snaplen = 1515
	sysF := NewSystem(full)
	stF := sysF.Run(newGen(10000, 900, 3))
	trunc := base
	trunc.Snaplen = 96
	sysT := NewSystem(trunc)
	stT := sysT.Run(newGen(10000, 900, 3))
	if stT.CaptureRate() <= stF.CaptureRate() {
		t.Fatalf("snaplen 96 captured %.2f%%, full %.2f%%: truncation should help",
			stT.CaptureRate(), stF.CaptureRate())
	}
}

// TestBSDReadTimeoutDeliversAtLowRate pins that a trickle of packets still
// reaches the application promptly via the read timeout, long before the
// double buffer would ever fill.
func TestBSDReadTimeoutDeliversAtLowRate(t *testing.T) {
	cfg := Config{Name: "t", Arch: arch.Opteron244(), OS: FreeBSD,
		NumCPUs: 2, BufferBytes: 4 << 20}
	cfg.Costs = DefaultCosts()
	cfg.Costs.ReadTimeoutNS = 1e6 // 1 ms
	sys := NewSystem(cfg)
	g := newGen(200, 5, 1) // 5 Mbit/s trickle
	st := sys.Run(g)
	if st.AppCaptured[0] != 200 {
		t.Fatalf("captured %d of 200 at trickle rate", st.AppCaptured[0])
	}
	// The hold buffer can never have filled: 200 × ~660 B ≪ 4 MB, so the
	// only way the app got them is rotation-on-read/timeout.
	bs := sys.stack.(*bsdStack)
	if d := st.Ledger.Drops[CauseBPFBuf].Packets; d != 0 || bs.atts[0].Stored != 200 {
		t.Fatalf("trickle rate: %d drops, %d of 200 stored", d, bs.atts[0].Stored)
	}
}

// TestHousekeepingCausesDefaultBufferDrops is the unit-level version of
// the abl-housekeeping experiment: with the real (uncompressed) default
// buffer and stall durations, a 4 ms reader stall at 400 Mbit/s overflows
// the 128 kB receive buffer, while a stall-free run held it.
func TestHousekeepingCausesDefaultBufferDrops(t *testing.T) {
	base := Config{Name: "t", Arch: arch.Opteron244(), OS: Linux, NumCPUs: 1,
		BufferBytes: DefaultLinuxRcvbuf}
	base.Costs = DefaultCosts() // unscaled: real stall and buffer sizes
	sysA := NewSystem(base)
	with := sysA.Run(newGen(30000, 400, 5))
	noHK := base
	noHK.Costs.HousekeepNS = 0
	sysB := NewSystem(noHK)
	without := sysB.Run(newGen(30000, 400, 5))
	if with.CaptureRate() >= without.CaptureRate() {
		t.Fatalf("housekeeping did not hurt: %.2f%% vs %.2f%%",
			with.CaptureRate(), without.CaptureRate())
	}
	if without.CaptureRate() < 99.9 {
		t.Fatalf("without stalls the default buffer should hold at 400 Mbit/s: %.2f%%",
			without.CaptureRate())
	}
}
