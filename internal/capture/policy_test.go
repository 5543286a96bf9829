package capture

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/flows"
	"repro/internal/pktgen"
)

// TestParsePolicyRoundTrip: every accepted spec string round-trips through
// String() back to an equivalent spec, and malformed specs are rejected
// with an error instead of a silent default.
func TestParsePolicyRoundTrip(t *testing.T) {
	for _, in := range []string{"none", "uniform:1", "uniform:4", "flow:16", "adaptive", "adaptive:0.7"} {
		spec, err := ParsePolicy(in)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", in, err)
		}
		if got := spec.String(); got != in {
			t.Errorf("ParsePolicy(%q).String() = %q", in, got)
		}
		again, err := ParsePolicy(spec.String())
		if err != nil || again != spec {
			t.Errorf("round trip of %q: %+v vs %+v (err %v)", in, again, spec, err)
		}
	}
	if spec, err := ParsePolicy(""); err != nil || spec.Enabled() {
		t.Errorf("empty policy = %+v, err %v; want disabled, nil", spec, err)
	}
	for _, bad := range []string{"uniform", "uniform:0", "uniform:-1", "uniform:x",
		"flow", "flow:0", "adaptive:0", "adaptive:1", "adaptive:nan", "none:3", "rand:2", "bogus"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted, want error", bad)
		}
	}
}

// FuzzParsePolicy: ParsePolicy never panics, and an accepted spec's
// String() is canonical — it re-parses to a spec that renders the same
// string and agrees on Enabled(). The campaign fingerprint hashes that
// canonical form, so two spellings of one policy must not diverge. An
// enabled spec must also name a shed cause and build a sampler.
func FuzzParsePolicy(f *testing.F) {
	for _, seed := range []string{"none", "uniform:4", "flow:16", "adaptive", "adaptive:0.7",
		"adaptive:nan", "uniform:0", "none:", "adaptive:0x1p-2", " flow:7 "} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParsePolicy(in)
		if err != nil {
			return
		}
		canon := spec.String()
		again, err := ParsePolicy(canon)
		if err != nil {
			t.Fatalf("ParsePolicy(%q) = %+v renders %q, which does not re-parse: %v", in, spec, canon, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("ParsePolicy(%q): canonical form %q re-renders as %q", in, canon, got)
		}
		if again.Enabled() != spec.Enabled() {
			t.Fatalf("ParsePolicy(%q): Enabled %v, re-parsed %v", in, spec.Enabled(), again.Enabled())
		}
		if spec.Enabled() {
			_ = spec.Cause() // panics on a policy without a shed cause
			if spec.newSampler() == nil {
				t.Fatalf("ParsePolicy(%q) = %+v is enabled but builds no sampler", in, spec)
			}
		}
	})
}

// TestPolicyCauses: each enabled policy books under its own distinct shed
// cause; the causes are per-application (not shared), render their wire
// names, and report Shed() — the property the conservation check and the
// "shed != lost" accounting rest on.
func TestPolicyCauses(t *testing.T) {
	names := map[Cause]string{
		CauseShedUniform:  "shed-uniform",
		CauseShedFlow:     "shed-flow",
		CauseShedAdaptive: "shed-adaptive",
	}
	seen := map[Cause]bool{}
	for _, in := range []string{"uniform:4", "flow:4", "adaptive"} {
		spec, err := ParsePolicy(in)
		if err != nil {
			t.Fatal(err)
		}
		c := spec.Cause()
		if seen[c] {
			t.Errorf("policy %q shares a cause with another policy", in)
		}
		seen[c] = true
		if c.String() != names[c] {
			t.Errorf("cause %d renders %q, want %q", c, c.String(), names[c])
		}
		if c.Shared() {
			t.Errorf("%s must be per-app, not shared", c)
		}
		if !c.Shed() {
			t.Errorf("%s.Shed() = false", c)
		}
	}
	if CauseRcvbuf.Shed() || CauseBacklog.Shed() {
		t.Error("loss causes report Shed() = true")
	}
}

// TestUniformSamplerExactRatio: the count-based sampler keeps exactly the
// first of every N consecutive packets, independent of read-batch
// boundaries (the counter lives in the sampler, not the batch loop).
func TestUniformSamplerExactRatio(t *testing.T) {
	s := PolicySpec{Kind: PolicyUniform, N: 4}.newSampler()
	kept := 0
	for i := 0; i < 1000; i++ {
		if s.admit(0) {
			if i%4 != 0 {
				t.Fatalf("packet %d admitted, want only multiples of 4", i)
			}
			kept++
		}
	}
	if kept != 250 {
		t.Fatalf("kept %d of 1000, want exactly 250", kept)
	}
	s.reset()
	if !s.admit(0) {
		t.Fatal("after reset the first packet must be admitted")
	}
}

// TestFlowSamplerWholeFlows: the flow sampler's decisions, made on the
// flow hash each packet carries, are a pure function of the 5-tuple that
// flows.KeyOf parses out of the frame — every packet of a kept flow is
// admitted and every packet of a shed flow declined.
func TestFlowSamplerWholeFlows(t *testing.T) {
	g := pktgen.New(3)
	g.Config.Count = 4000
	g.Config.UDPSrcPortCount = 32
	s := PolicySpec{Kind: PolicyFlow, N: 4}.newSampler()
	verdict := map[flows.Key]bool{}
	keptFlows := 0
	for {
		p, ok := g.Next()
		if !ok {
			break
		}
		admit := s.admit(p.Flow)
		k, isIP := flows.KeyOf(p.Data)
		if !isIP {
			t.Fatal("generated frame without a flow key")
		}
		if prev, seen := verdict[k]; seen {
			if prev != admit {
				t.Fatalf("flow %v got split: earlier admit=%v, now %v", k, prev, admit)
			}
			continue
		}
		verdict[k] = admit
		if admit {
			keptFlows++
		}
	}
	if len(verdict) != 32 {
		t.Fatalf("train carried %d distinct flows, want 32", len(verdict))
	}
	if keptFlows == 0 || keptFlows == len(verdict) {
		t.Fatalf("flow:4 kept %d of %d flows; want a strict subset", keptFlows, len(verdict))
	}
}

// TestAdaptiveSamplerControl: the controller's keep rate stays within
// [floor, 1], converges to the floor under sustained overload, recovers to
// full capture when the queues drain, and dispenses admissions at the keep
// rate via the deterministic credit accumulator.
func TestAdaptiveSamplerControl(t *testing.T) {
	a := PolicySpec{Kind: PolicyAdaptive}.newSampler().(*adaptiveSampler)
	if a.keep != 1 {
		t.Fatalf("fresh controller keep = %v, want 1 (capture everything until pressure)", a.keep)
	}
	for i := 0; i < 200; i++ {
		a.observe(1.0)
		if a.keep < a.floor-1e-12 || a.keep > 1 {
			t.Fatalf("keep %v outside [floor=%v, 1]", a.keep, a.floor)
		}
	}
	if math.Abs(a.keep-a.floor) > 1e-12 {
		t.Fatalf("sustained overload: keep = %v, want floor %v", a.keep, a.floor)
	}
	// Even at the floor a trickle gets through (graceful degradation).
	admitted := 0
	for i := 0; i < 1000; i++ {
		if a.admit(0) {
			admitted++
		}
	}
	if want := int(1000 * a.floor); admitted < want-1 || admitted > want+1 {
		t.Fatalf("at floor %v: admitted %d of 1000, want ≈%d", a.floor, admitted, want)
	}
	for i := 0; i < 200; i++ {
		a.observe(0.0)
	}
	if a.keep != 1 {
		t.Fatalf("after queues drained: keep = %v, want full recovery to 1", a.keep)
	}
	// Credit dispensing at keep=0.5 admits exactly every other packet.
	a.observe(a.target) // zero error: keep unchanged
	a.keep, a.credit = 0.5, 0
	pat := ""
	for i := 0; i < 6; i++ {
		if a.admit(0) {
			pat += "1"
		} else {
			pat += "0"
		}
	}
	if pat != "010101" {
		t.Fatalf("keep=0.5 admission pattern %q, want alternating 010101", pat)
	}
}

// TestFairnessIndex: Jain's index over per-app capture counts, pinned on
// the starvation shapes — including the all-zero 0/0 edge that must be
// defined as 1.0, never NaN or Inf.
func TestFairnessIndex(t *testing.T) {
	cases := []struct {
		name string
		in   []uint64
		want float64
	}{
		{"no apps", nil, 1},
		{"single app", []uint64{500}, 1},
		{"equal shares", []uint64{100, 100, 100, 100}, 1},
		{"all starved (0/0)", []uint64{0, 0, 0, 0}, 1},
		{"one app starved", []uint64{0, 100, 100, 100}, 0.75},
		{"all but one starved", []uint64{100, 0, 0, 0}, 0.25},
		{"mild skew", []uint64{90, 100, 110, 100}, 4 * 400 * 400 / (4 * 4 * (8100.0 + 10000 + 12100 + 10000))},
	}
	for _, c := range cases {
		got := FairnessIndex(c.in)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("%s: FairnessIndex = %v", c.name, got)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: FairnessIndex = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestPolicyConservationMatrix: for each policy crossed with both
// capturing stacks and several application counts, the run books a
// nonzero amount under exactly that policy's shed cause, the other shed
// causes stay zero, the per-app AppShed counters agree with the ledger,
// and the conservation identity holds — shed is accounted, not lost.
func TestPolicyConservationMatrix(t *testing.T) {
	for _, base := range []Config{swanCfg(), moorhenCfg()} {
		for _, pol := range []string{"uniform:4", "flow:4", "adaptive"} {
			for _, napps := range []int{1, 3} {
				base, pol, napps := base, pol, napps
				t.Run(fmt.Sprintf("%s-%s-%dapp", base.Name, pol, napps), func(t *testing.T) {
					t.Parallel()
					spec, err := ParsePolicy(pol)
					if err != nil {
						t.Fatal(err)
					}
					cfg := base
					cfg.NumCPUs = 2
					cfg.NumApps = napps
					cfg.Policy = spec
					cfg.Load.MemcpyCount = 50 // pressure, so adaptive engages
					sys := NewSystem(scaled(cfg, 6000))
					g := newGen(6000, 900, 11)
					g.Config.UDPSrcPortCount = 32
					st := sys.Run(g)

					if err := st.CheckConservation(); err != nil {
						t.Fatal(err)
					}
					if st.Ledger.Drops[spec.Cause()].Packets == 0 {
						t.Fatalf("no packets booked under %s", spec.Cause())
					}
					for _, c := range ShedCauses {
						if c != spec.Cause() && st.Ledger.Drops[c].Packets != 0 {
							t.Fatalf("%s booked %d packets under foreign cause %s",
								pol, st.Ledger.Drops[c].Packets, c)
						}
					}
					var appShed uint64
					for _, s := range st.AppShed {
						appShed += s
					}
					if appShed != st.Ledger.ShedPackets() {
						t.Fatalf("Σ AppShed %d != ledger shed %d", appShed, st.Ledger.ShedPackets())
					}
					if len(st.AppShed) != napps || len(st.AppFlows) != napps {
						t.Fatalf("AppShed/AppFlows lengths %d/%d, want %d",
							len(st.AppShed), len(st.AppFlows), napps)
					}
					if st.PolicyName != spec.String() {
						t.Fatalf("PolicyName = %q, want %q", st.PolicyName, spec.String())
					}
				})
			}
		}
	}
}

// TestPolicyShedPlusFaultLossConserves: deliberate shedding composes with
// injected fault losses — the chaos path books shared fault causes on top
// of the per-app shed causes and the books still balance.
func TestPolicyShedPlusFaultLossConserves(t *testing.T) {
	cfg := moorhenCfg()
	cfg.NumApps = 2
	cfg.Policy = PolicySpec{Kind: PolicyUniform, N: 4}
	sys := NewSystem(scaled(cfg, 3000))
	st := sys.Run(newGen(2900, 400, 3)) // 100 frames short of the "switch count"
	if st.Ledger.Drops[CauseShedUniform].Packets == 0 {
		t.Fatal("uniform policy shed nothing")
	}
	st.BookFaultLoss(CauseFaultSplitter, 100, 64000, 12345)
	if err := st.CheckConservation(); err != nil {
		t.Fatalf("conservation with shed + fault loss: %v", err)
	}
}

// TestPolicyDeterminism: a policed run is as deterministic as an
// unpoliced one — identical config and seed give identical Stats,
// including the shed bookkeeping.
func TestPolicyDeterminism(t *testing.T) {
	for _, pol := range []string{"uniform:4", "flow:4", "adaptive"} {
		spec, err := ParsePolicy(pol)
		if err != nil {
			t.Fatal(err)
		}
		cfg := swanCfg()
		cfg.NumCPUs = 2
		cfg.NumApps = 2
		cfg.Policy = spec
		run := func() Stats {
			sys := NewSystem(scaled(cfg, 5000))
			g := newGen(5000, 900, 7)
			g.Config.UDPSrcPortCount = 16
			return sys.Run(g)
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: repeated run diverged:\n%+v\nvs\n%+v", pol, a, b)
		}
	}
}

// TestPolicyOffIsByteIdenticalStats: the zero PolicySpec leaves Stats
// exactly as an unpoliced build produces them — no AppShed/AppFlows
// slices, no PolicyName, no shed causes — which is what keeps every
// golden output byte-identical with policies off.
func TestPolicyOffIsByteIdenticalStats(t *testing.T) {
	sys := NewSystem(scaled(swanCfg(), 5000))
	st := sys.Run(newGen(5000, 900, 7))
	if st.AppShed != nil || st.AppFlows != nil || st.PolicyName != "" {
		t.Fatalf("unpoliced run carries policy fields: AppShed=%v AppFlows=%v PolicyName=%q",
			st.AppShed, st.AppFlows, st.PolicyName)
	}
	if n := st.Ledger.ShedPackets(); n != 0 {
		t.Fatalf("unpoliced run shed %d packets", n)
	}
}

// TestCountFlowsWithoutPolicy: flow accounting is available to unpoliced
// runs via CountFlows (the shedding experiment's baseline column) without
// disturbing anything else.
func TestCountFlowsWithoutPolicy(t *testing.T) {
	cfg := moorhenCfg()
	cfg.CountFlows = true
	sys := NewSystem(scaled(cfg, 3000))
	g := newGen(3000, 200, 5)
	g.Config.UDPSrcPortCount = 16
	st := sys.Run(g)
	if len(st.AppFlows) != 1 || st.AppFlows[0] != 16 {
		t.Fatalf("AppFlows = %v, want one app having seen all 16 flows", st.AppFlows)
	}
	if st.AppShed != nil || st.PolicyName != "" {
		t.Fatalf("CountFlows leaked policy fields: %+v", st)
	}
	if err := st.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
