package capture

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/filter"
	"repro/internal/pktgen"
)

// newModernGen builds a multi-flow train at a multi-gigabit line rate
// (RSS needs flow diversity to spread, and a 2005-style 1250 ns sender
// cannot source 10G+).
func newModernGen(packets int, rateMbit float64, seed uint64) *pktgen.Generator {
	g := newGen(packets, rateMbit, seed)
	g.Config.LineRate = 100e9
	g.Config.PerPacketCostNS = 20
	g.Config.UDPSrcPortCount = 256
	return g
}

// modernCfg mirrors the core-level heron/osprey/kite profiles without
// importing core (which imports this package).
func modernCfg(name string, kind StackKind, napps int) Config {
	cfg := Config{
		Name:    name,
		OS:      Linux,
		Stack:   kind,
		NumCPUs: 8,
		RXRings: 4,
		NumApps: napps,
	}
	if kind == StackPoll {
		cfg.Arch = arch.EpycRome()
	} else {
		cfg.Arch = arch.XeonScalable()
		cfg.BufferBytes = 8 << 20
	}
	return cfg
}

func modernKinds() map[string]StackKind {
	return map[string]StackKind{
		"rss":      StackRSS,
		"pollmode": StackPoll,
		"zerocopy": StackZeroCopy,
	}
}

// TestModernConservation drives every modern stack across app counts and
// load levels, from comfortable to far past saturation, and requires the
// drop ledger to balance exactly in each cell.
func TestModernConservation(t *testing.T) {
	for name, kind := range modernKinds() {
		for _, napps := range []int{1, 4} {
			for _, rateMbit := range []float64{2000, 40000, 100000} {
				sys := NewSystem(scaled(modernCfg(name, kind, napps), 4000))
				st := sys.Run(newModernGen(4000, rateMbit, 1))
				if st.Truncated {
					t.Errorf("%s napps=%d rate=%g: truncated", name, napps, rateMbit)
				}
				if err := st.CheckConservation(); err != nil {
					t.Errorf("%s napps=%d rate=%g: %v", name, napps, rateMbit, err)
				}
				if st.Generated != 4000 {
					t.Errorf("%s napps=%d rate=%g: generated %d", name, napps, rateMbit, st.Generated)
				}
				checkModernBooks(t, fmt.Sprintf("%s napps=%d rate=%g", name, napps, rateMbit), sys, st)
			}
		}
	}
}

// checkModernBooks checks a drained modern run against the counters kept
// outside the ledger: the packets the RSS NIC delivered to the stack, and
// those each socket enqueued. What the NIC delivered reaches every socket
// unless the UMEM pool had no frame for it; there it is enqueued, dropped
// at the full socket, or rejected by the filter, and every enqueued
// packet is read and then captured or shed.
func checkModernBooks(t *testing.T, label string, sys *System, st Stats) {
	t.Helper()
	l, delivered := st.Ledger, sys.rss.Delivered
	if l.NICPackets()+delivered != st.Generated {
		t.Errorf("%s: NIC drops %d + delivered %d != generated %d",
			label, l.NICPackets(), delivered, st.Generated)
	}
	var socks []*sock
	switch stk := sys.stack.(type) {
	case *rssStack:
		socks = stk.socks
	case *pollStack:
		socks = stk.socks
	case *xdpStack:
		socks = stk.socks
	}
	var enq uint64
	for _, sk := range socks {
		enq += sk.Enqueued
	}
	napps := uint64(len(socks))
	rcvbuf, filter := l.Drops[CauseRcvbuf].Packets, l.Drops[CauseFilter].Packets
	if want := (delivered - l.Drops[CauseUmemFill].Packets) * napps; enq+rcvbuf+filter != want {
		t.Errorf("%s: enqueued %d + rcvbuf %d + filter %d != (delivered %d - umem-fill %d) × %d apps",
			label, enq, rcvbuf, filter, delivered, l.Drops[CauseUmemFill].Packets, napps)
	}
	if got := st.CapturedTotal() + st.ShedTotal(); enq != got {
		t.Errorf("%s: enqueued %d != captured + shed %d after the drain", label, enq, got)
	}
}

// TestModernRunDeterministic runs the same seed + train on two freshly
// built systems; the runs must agree exactly, including the per-ring RSS
// delivery counts (the same property -parallel sweeps rely on).
func TestModernRunDeterministic(t *testing.T) {
	for name, kind := range modernKinds() {
		cfg := scaled(modernCfg(name, kind, 2), 3000)
		sysA := NewSystem(cfg)
		first := sysA.Run(newModernGen(3000, 40000, 7))
		firstRings := sysA.RingDelivered()
		sysB := NewSystem(cfg)
		fresh := sysB.Run(newModernGen(3000, 40000, 7))
		freshRings := sysB.RingDelivered()

		if fresh.CapturedTotal() != first.CapturedTotal() ||
			sysB.rss.Delivered != sysA.rss.Delivered ||
			fresh.Ledger != first.Ledger {
			t.Errorf("%s: fresh run diverged: captured %d/%d delivered %d/%d nicdrops %d/%d",
				name, fresh.CapturedTotal(), first.CapturedTotal(),
				sysB.rss.Delivered, sysA.rss.Delivered,
				fresh.Ledger.NICPackets(), first.Ledger.NICPackets())
		}
		if len(firstRings) == 0 {
			t.Fatalf("%s: no ring delivery counts", name)
		}
		for r := range firstRings {
			if freshRings[r] != firstRings[r] {
				t.Errorf("%s: ring %d delivered %d then %d", name, r, firstRings[r], freshRings[r])
			}
		}
		// RSS must actually spread a 256-flow train beyond one ring.
		spread := 0
		for _, d := range firstRings {
			if d > 0 {
				spread++
			}
		}
		if spread < 2 {
			t.Errorf("%s: %d-ring RSS used only %d ring(s): %v", name, len(firstRings), spread, firstRings)
		}
	}
}

// TestPollModeAlwaysBusy pins the defining poll-mode trade: the PMD cores
// are ~100% busy in softirq context for the whole generation window even
// at a trivially low rate.
func TestPollModeAlwaysBusy(t *testing.T) {
	sys := NewSystem(scaled(modernCfg("osprey", StackPoll, 1), 2000))
	st := sys.Run(newModernGen(2000, 500, 3))
	if err := st.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if st.WallTime <= 0 {
		t.Fatal("no generation window")
	}
	nrings := sys.RXRings
	if nrings != 4 {
		t.Fatalf("RXRings = %d, want 4", nrings)
	}
	for r := 0; r < nrings; r++ {
		frac := float64(st.BusyByCPU[r][1]) / float64(st.WallTime) // PrioSoftIRQ
		if frac < 0.95 {
			t.Errorf("PMD core %d softirq busy %.1f%% of wall, want ~100%%", r, frac*100)
		}
	}
}

// TestModernOverloadCauses checks that each modern bottleneck books drops
// under its own cause: the PCIe/memory ceiling at 100G on a PCIe 3.0 x8
// host, RSS ring overflow when the stack cannot drain, and UMEM fill-ring
// exhaustion when the zero-copy pool is tiny.
func TestModernOverloadCauses(t *testing.T) {
	// heron at 100G: the 63 Gbit/s bus ceiling must drop under pcie-bus.
	sys := NewSystem(scaled(modernCfg("heron", StackRSS, 1), 5000))
	st := sys.Run(newModernGen(5000, 100000, 1))
	if err := st.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	checkModernBooks(t, "heron at 100G", sys, st)
	if st.Ledger.Drops[CausePCIe].Packets == 0 {
		t.Errorf("heron at 100G: no pcie-bus drops; ledger: %+v", st.Ledger.Drops)
	}

	// Starved RSS rings: a single slow CPU behind 100G must overflow the
	// rings (rss-ring and/or the budget-deferred variant).
	cfg := scaled(modernCfg("heron", StackRSS, 1), 5000)
	cfg.Arch = arch.Xeon306() // 2005 core, no bus ceiling
	cfg.NumCPUs = 2
	cfg.RXRings = 2
	cfg.Costs.RSSRingSlots = 64
	sys = NewSystem(cfg)
	st = sys.Run(newModernGen(5000, 100000, 1))
	if err := st.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	checkModernBooks(t, "starved rss rings", sys, st)
	ring := st.Ledger.Drops[CauseRSSRing].Packets + st.Ledger.Drops[CausePollBudget].Packets
	if ring == 0 {
		t.Errorf("starved rss rings: no rss-ring/poll-budget drops; ledger: %+v", st.Ledger.Drops)
	}
	if pcie := st.Ledger.Drops[CausePCIe].Packets; ring+pcie+sys.rss.Delivered != st.Generated {
		t.Errorf("ring drops %d + pcie %d + delivered %d != generated %d",
			ring, pcie, sys.rss.Delivered, st.Generated)
	}

	// kite with a tiny UMEM: fill-ring exhaustion must book umem-fill as a
	// shared cause.
	cfg = scaled(modernCfg("kite", StackZeroCopy, 2), 5000)
	cfg.Costs.UmemFrames = 32
	sys = NewSystem(cfg)
	st = sys.Run(newModernGen(5000, 40000, 1))
	if err := st.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	checkModernBooks(t, "tiny umem", sys, st)
	if st.Ledger.Drops[CauseUmemFill].Packets == 0 {
		t.Errorf("tiny umem: no umem-fill drops; ledger: %+v", st.Ledger.Drops)
	}
}

// TestModernWithPolicy runs each modern stack under a sampling policy:
// shed packets are deliberate (shed != lost) and the ledger still
// balances.
func TestModernWithPolicy(t *testing.T) {
	for name, kind := range modernKinds() {
		cfg := scaled(modernCfg(name, kind, 2), 3000)
		cfg.Policy = PolicySpec{Kind: PolicyUniform, N: 2}
		sys := NewSystem(cfg)
		st := sys.Run(newModernGen(3000, 10000, 5))
		if err := st.CheckConservation(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		checkModernBooks(t, name, sys, st)
		if st.ShedTotal() == 0 {
			t.Errorf("%s: uniform 1-in-2 policy shed nothing", name)
		}
	}
}

// TestModernRingClamp pins the ring-count clamping rules: 0 means one per
// CPU, poll mode keeps one core free for the readers.
func TestModernRingClamp(t *testing.T) {
	cfg := modernCfg("heron", StackRSS, 1)
	cfg.RXRings = 0
	if got := NewSystem(scaled(cfg, 1000)).RXRings; got != 8 {
		t.Errorf("rss rings=0: clamped to %d, want 8 (one per CPU)", got)
	}
	cfg = modernCfg("osprey", StackPoll, 1)
	cfg.RXRings = 99
	if got := NewSystem(scaled(cfg, 1000)).RXRings; got != 7 {
		t.Errorf("poll rings=99: clamped to %d, want 7 (NumCPUs-1)", got)
	}
}

// pollGoldenPackets is the train length of every golden poll-mode cell.
const pollGoldenPackets = 3000

// pollGoldenCase is one cell of the poll-mode golden matrix.
type pollGoldenCase struct {
	name     string
	cfg      Config
	rateMbit float64
}

// pollGoldenCases is the osprey matrix whose Stats testdata/pollmode.golden.json
// pins: 8 CPUs × rings {1,2,4,7} × {1,4} apps × {2,25,100}G, then
// hyperthreading (PMD siblings spinning, and a PMD sibling running the
// readers), 2 CPUs, a sampling policy, the reference BPF filter, and 1 CPU
// without housekeeping, where the reader starves behind the spin until the
// 600 s cap truncates the run.
func pollGoldenCases() []pollGoldenCase {
	osprey := func(napps int) Config {
		return scaled(modernCfg("osprey", StackPoll, napps), pollGoldenPackets)
	}
	var cs []pollGoldenCase
	for _, rings := range []int{1, 2, 4, 7} {
		for _, napps := range []int{1, 4} {
			for _, gbit := range []int{2, 25, 100} {
				cfg := osprey(napps)
				cfg.RXRings = rings
				cs = append(cs, pollGoldenCase{fmt.Sprintf("8cpu-rings%d-apps%d-%dG", rings, napps, gbit), cfg, float64(gbit) * 1000})
			}
		}
	}
	ht := osprey(4)
	ht.Hyperthreading = true
	cs = append(cs, pollGoldenCase{"ht-8cpu-rings4-apps4-25G", ht, 25000})
	for _, gbit := range []int{2, 25} {
		ht = osprey(4)
		ht.Hyperthreading = true
		ht.NumCPUs = 2 // 4 logical CPUs: PMDs on 0-2, readers on 3, cpu 2's sibling
		cs = append(cs, pollGoldenCase{fmt.Sprintf("ht-2cpu-rings3-apps4-%dG", gbit), ht, float64(gbit) * 1000})
	}
	two := osprey(1)
	two.NumCPUs = 2
	cs = append(cs, pollGoldenCase{"2cpu-apps1-25G", two, 25000})
	pol := osprey(4)
	pol.Policy = PolicySpec{Kind: PolicyUniform, N: 2}
	cs = append(cs, pollGoldenCase{"8cpu-rings4-apps4-uniform2-25G", pol, 25000})
	bpf := osprey(4)
	bpf.Filter = filter.MustCompile(filter.ReferenceFilterExpr, 1515)
	cs = append(cs, pollGoldenCase{"8cpu-rings4-apps4-bpf-25G", bpf, 25000})
	one := osprey(1)
	one.NumCPUs = 1
	one.Costs.HousekeepNS = 0
	cs = append(cs, pollGoldenCase{"1cpu-nohousekeeping-apps1-2G", one, 2000})
	return cs
}

// TestPollModeGolden pins the Stats of the poll-mode matrix to those of a
// loop that simulates every empty poll as its own PollIdleNS task: the
// reference the event-free spin must reproduce exactly. Regenerate with
// UPDATE_GOLDEN=1 only for a deliberate model change.
func TestPollModeGolden(t *testing.T) {
	cases := pollGoldenCases()
	got := map[string]Stats{}
	for _, c := range cases {
		st := NewSystem(c.cfg).Run(newModernGen(pollGoldenPackets, c.rateMbit, 1))
		if err := st.CheckConservation(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		got[c.name] = st
	}
	if !got["1cpu-nohousekeeping-apps1-2G"].Truncated {
		t.Error("1cpu-nohousekeeping-apps1-2G: the starved reader did not truncate the run")
	}
	golden := filepath.Join("testdata", "pollmode.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	var want map[string]Stats
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cells, the matrix %d", len(want), len(got))
	}
	for _, c := range cases {
		if w, ok := want[c.name]; !ok {
			t.Errorf("%s: not in the golden file", c.name)
		} else if st := got[c.name]; !reflect.DeepEqual(st, w) {
			gb, _ := json.Marshal(st)
			wb, _ := json.Marshal(w)
			t.Errorf("%s drifted from golden:\ngot  %s\nwant %s", c.name, gb, wb)
		}
	}
}
