package capture

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/filter"
	"repro/internal/pktgen"
)

// fuzzFilter is the reference BPF program, compiled once for every input.
var fuzzFilter = filter.MustCompile(filter.ReferenceFilterExpr, 1515)

// fuzzPolicies are the sampling policies a fuzz input picks from.
var fuzzPolicies = []PolicySpec{
	{},
	{Kind: PolicyUniform, N: 2},
	{Kind: PolicyFlow, N: 2},
	{Kind: PolicyAdaptive},
}

// fuzzInput is one decoded fuzz case: a scaled config and its train.
type fuzzInput struct {
	cfg     Config
	packets int
	gen     func() *pktgen.Generator
}

// decodeFuzz maps raw fuzz values onto a small, valid capture setup: the
// stack (Linux, FreeBSD, RSS, poll mode, zero copy), 1–4 apps, 1–8 CPUs,
// hyperthreading, RX rings, buffer size, mmap or PF_RING, the reference
// filter, a sampling policy, a memcpy load, the rate, 100–1500 packets
// and the seed.
func decodeFuzz(stack, apps, cpus uint8, ht bool, rings, buf, ring uint8,
	useFilter bool, policy, memcpy uint8, rate uint16, packets uint16, seed uint64) fuzzInput {
	cfg := Config{
		Name:           "fuzz",
		NumApps:        1 + int(apps%4),
		NumCPUs:        1 + int(cpus%8),
		Hyperthreading: ht,
		RXRings:        int(rings % 9),
		BufferBytes:    64 << 10 << (buf % 12), // 64 KB … 128 MB
		Policy:         fuzzPolicies[policy%uint8(len(fuzzPolicies))],
	}
	cfg.Load.MemcpyCount = int(memcpy % 32)
	switch ring % 3 {
	case 1:
		cfg.MmapPatch = true
	case 2:
		cfg.PFRing = true
	}
	if useFilter {
		cfg.Filter = fuzzFilter
	}
	n := 100 + int(packets%1401)
	in := fuzzInput{packets: n}
	switch stack % 5 {
	case 0, 1:
		cfg.OS = Linux
		if stack%5 == 1 {
			cfg.OS = FreeBSD
		}
		cfg.Arch = arch.Opteron244()
		if ht {
			cfg.Arch = arch.Xeon306()
		}
		mbit := 50 + float64(rate%951) // 50–1000 Mbit/s
		in.gen = func() *pktgen.Generator { return newGen(n, mbit, seed) }
	default:
		cfg.OS = Linux
		cfg.Stack = []StackKind{StackRSS, StackPoll, StackZeroCopy}[stack%5-2]
		cfg.Arch = arch.XeonScalable()
		if cfg.Stack == StackPoll {
			cfg.Arch = arch.EpycRome()
		}
		mbit := 1000 * float64(1+rate%100) // 1–100 Gbit/s
		in.gen = func() *pktgen.Generator { return newModernGen(n, mbit, seed) }
	}
	in.cfg = scaled(cfg, n)
	return in
}

// FuzzCaptureConservation checks the capture model's invariants on
// generated configs and trains: the drop ledger balances and accounts for
// the whole train, Stats round-trips through JSON exactly (the campaign
// journal replays cells through it), and two fresh Systems fed the same
// input agree exactly, as does a second run on one of them.
func FuzzCaptureConservation(f *testing.F) {
	type seedIn struct {
		stack, apps, cpus uint8
		ht                bool
		rings, buf, ring  uint8
		filter            bool
		policy, memcpy    uint8
		rate, packets     uint16
		seed              uint64
	}
	for _, s := range []seedIn{
		{0, 0, 0, false, 0, 1, 0, false, 0, 0, 900, 1400, 1},  // Linux, 1 CPU, overloaded
		{0, 2, 1, false, 0, 5, 1, true, 1, 0, 700, 1000, 2},   // Linux mmap, 3 apps, filter, uniform
		{0, 1, 1, true, 0, 3, 2, false, 3, 8, 500, 800, 3},    // PF_RING on HT, adaptive, memcpy
		{1, 0, 0, false, 0, 0, 0, false, 0, 0, 900, 1400, 4},  // FreeBSD, 1 CPU
		{1, 2, 1, false, 0, 6, 1, true, 2, 4, 800, 1200, 5},   // FreeBSD mmap, 3 apps, flow
		{2, 0, 7, false, 4, 6, 0, false, 0, 0, 39, 1200, 6},   // RSS, 8 CPUs, 40G
		{2, 3, 1, true, 0, 2, 0, true, 1, 0, 99, 900, 7},      // RSS, 4 apps, 100G, filter
		{3, 0, 7, false, 4, 0, 0, false, 0, 0, 24, 1200, 8},   // poll mode, 25G
		{3, 3, 1, false, 0, 0, 0, false, 3, 0, 1, 300, 9},     // poll mode, 2 CPUs, adaptive
		{4, 1, 7, false, 4, 0, 0, true, 2, 0, 39, 1200, 10},   // zero copy, 2 apps, filter
		{4, 3, 3, true, 2, 0, 0, false, 3, 16, 99, 1400, 11},  // zero copy, 4 apps, HT, adaptive
		{2, 0, 1, false, 1, 0, 0, false, 0, 31, 99, 1500, 12}, // RSS, 2 CPUs, heavy memcpy
		{0, 3, 7, false, 0, 11, 0, false, 1, 0, 950, 100, 13}, // Linux, 4 apps, huge buffer
		{1, 3, 7, true, 0, 11, 2, true, 3, 31, 950, 1500, 14}, // FreeBSD, all knobs
		{3, 1, 1, true, 8, 3, 1, true, 1, 5, 60, 700, 15},     // poll mode, HT, 2 CPUs
		{4, 0, 0, false, 0, 11, 0, false, 0, 0, 0, 100, 16},   // zero copy, 1 CPU, 1G
		{2, 2, 2, false, 3, 4, 2, true, 2, 2, 50, 1000, 17},   // RSS, 3 apps, flow
		{0, 0, 1, false, 0, 0, 0, true, 2, 0, 400, 600, 18},   // Linux, filter, flow
		{1, 1, 1, false, 0, 2, 0, false, 1, 0, 600, 600, 19},  // FreeBSD, 2 apps, uniform
		{4, 2, 5, false, 6, 9, 0, true, 0, 3, 70, 1100, 20},   // zero copy, 3 apps, filter
		// Once ran to the 600 s cap: the FreeBSD read timeout idled a
		// reader while the NIC still held a packet, stranding it in STORE.
		{86, 3, 29, false, 0, 0, 0, true, 1, 0, 66, 300, 10},
		// Once ran to the 600 s cap: poll mode on 1 CPU queued a
		// housekeeping task behind the PMD spin every period.
		{3, 3, 88, false, 0, 0, 0, false, 3, 0, 1, 300, 9},
	} {
		f.Add(s.stack, s.apps, s.cpus, s.ht, s.rings, s.buf, s.ring, s.filter,
			s.policy, s.memcpy, s.rate, s.packets, s.seed)
	}
	f.Fuzz(func(t *testing.T, stack, apps, cpus uint8, ht bool, rings, buf, ring uint8,
		useFilter bool, policy, memcpy uint8, rate uint16, packets uint16, seed uint64) {
		in := decodeFuzz(stack, apps, cpus, ht, rings, buf, ring, useFilter, policy, memcpy, rate, packets, seed)
		st := NewSystem(in.cfg).Run(in.gen())
		if err := st.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		if st.Generated != uint64(in.packets) {
			t.Fatalf("generated %d of a %d-packet train", st.Generated, in.packets)
		}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var back Stats
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, back) {
			t.Fatalf("Stats changed across a JSON round trip:\n%+v\nvs\n%+v", st, back)
		}
		// A second fresh System, and one System run twice: every run
		// must agree exactly with the first.
		reused := NewSystem(in.cfg)
		if again := reused.Run(in.gen()); !reflect.DeepEqual(st, again) {
			t.Fatalf("two fresh Systems diverged on one input:\n%+v\nvs\n%+v", st, again)
		}
		if second := reused.Run(in.gen()); !reflect.DeepEqual(st, second) {
			t.Fatalf("a reused System diverged from a fresh one:\n%+v\nvs\n%+v", second, st)
		}
	})
}
