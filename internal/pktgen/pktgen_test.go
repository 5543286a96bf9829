package pktgen

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/flows"
	"repro/internal/pkt"
	"repro/internal/trace"
)

func loadMWN(t testing.TB, g *Generator) {
	c := trace.MWNCounts(1_000_000)
	d, err := dist.Build(c, dist.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	g.LoadDistribution(d)
}

func TestFixedSizeGeneration(t *testing.T) {
	g := New(1)
	if err := g.Pgset("count 100"); err != nil {
		t.Fatal(err)
	}
	if err := g.Pgset("pkt_size 1000"); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		p, ok := g.Next()
		if !ok {
			break
		}
		if len(p.Data) != 1000 {
			t.Fatalf("frame len = %d", len(p.Data))
		}
		if p.WireLen != 1000+pkt.WireOverhead {
			t.Fatalf("wire len = %d", p.WireLen)
		}
		n++
	}
	if n != 100 || g.Sent != 100 {
		t.Fatalf("generated %d packets", n)
	}
	if g.SentBytes != 100*1000 {
		t.Fatalf("byte count = %d", g.SentBytes)
	}
}

// TestPacketFlowIsKeyOf: the flow hash the generator carries with each
// packet is the one flows.KeyOf and Key.Hash compute from the frame, for
// every port range and frame size the generator varies (1 is clamped to
// the minimum UDP frame), and a Packet stays 48 bytes, so carrying it
// grows no recorded train.
func TestPacketFlowIsKeyOf(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 48 {
		t.Fatalf("pktgen.Packet is %d bytes, want 48", got)
	}
	for _, ports := range []int{0, 16, 256} {
		for _, size := range []int{0, 1, 64, 1514, -1} {
			name := fmt.Sprintf("ports=%d/size=%d", ports, size)
			g := New(7)
			g.Config.Count = 3000
			g.Config.UDPSrcPortCount = ports
			switch {
			case size > 0:
				g.Config.PktSize = size
			case size < 0:
				name = fmt.Sprintf("ports=%d/mwn", ports)
				loadMWN(t, g)
			}
			keys := map[flows.Key]bool{}
			for {
				p, ok := g.Next()
				if !ok {
					break
				}
				if size == 1 && len(p.Data) != pkt.MinUDPFrameLen {
					t.Fatalf("%s: frame of %d bytes, want it clamped to %d", name, len(p.Data), pkt.MinUDPFrameLen)
				}
				k, ok := flows.KeyOf(p.Data)
				if !ok {
					t.Fatalf("%s: packet %d has no flow key", name, g.Sent-1)
				}
				if p.Flow != k.Hash() {
					t.Fatalf("%s: packet %d carries flow %#x, KeyOf hashes to %#x", name, g.Sent-1, p.Flow, k.Hash())
				}
				keys[k] = true
			}
			if want := max(ports, 1); len(keys) != want {
				t.Fatalf("%s: %d distinct flows, want %d", name, len(keys), want)
			}
		}
	}
}

func TestLineRateCap(t *testing.T) {
	g := New(1)
	g.Config.Count = 10000
	g.Config.PktSize = 1500
	g.Config.PerPacketCostNS = 0
	for {
		if _, ok := g.Next(); !ok {
			break
		}
	}
	rate := g.AchievedRate()
	if rate > 1.0001e9 {
		t.Fatalf("achieved %f bits/s, exceeds line rate", rate)
	}
	if rate < 0.99e9 {
		t.Fatalf("achieved %f bits/s, should be ≈ line rate with no extra cost", rate)
	}
	// Frame rate excludes the 24-byte overhead: ≈ 1500/1524 of the line.
	want := 1e9 * 1500 / 1524
	if math.Abs(g.FrameRate()-want)/want > 0.01 {
		t.Fatalf("frame rate = %f, want ≈ %f", g.FrameRate(), want)
	}
}

// TestGenRateSmallPackets pins the generator-host bottleneck: with minimum
// frames the per-packet cost, not the wire, limits throughput (the thesis
// could not reach line rate with small packets on any tool, §4.1).
func TestGenRateSmallPackets(t *testing.T) {
	g := New(1)
	g.Config.Count = 10000
	g.Config.PktSize = 64
	for {
		if _, ok := g.Next(); !ok {
			break
		}
	}
	pps := float64(g.Sent) / g.LastTime.Seconds()
	if pps > 1e9/g.Config.PerPacketCostNS*1.001 {
		t.Fatalf("pps = %f exceeds the per-packet cost bound", pps)
	}
	if g.AchievedRate() > 0.6e9 {
		t.Fatalf("small packets reached %.0f bits/s; must be generator-bound", g.AchievedRate())
	}
}

func TestTargetRatePacing(t *testing.T) {
	g := New(1)
	g.Config.Count = 20000
	g.Config.PktSize = 1500
	if err := g.Pgset("rate 300"); err != nil { // 300 Mbit/s
		t.Fatal(err)
	}
	for {
		if _, ok := g.Next(); !ok {
			break
		}
	}
	rate := g.AchievedRate()
	if math.Abs(rate-300e6)/300e6 > 0.02 {
		t.Fatalf("achieved %.0f, want ≈ 300e6", rate)
	}
}

func TestDistributionViaProcfs(t *testing.T) {
	c := trace.MWNCounts(1_000_000)
	d, err := dist.Build(c, dist.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dist.WriteProcfs(&buf, d, false); err != nil {
		t.Fatal(err)
	}
	g := New(3)
	// PKTSIZE_REAL before the distribution is complete must fail.
	if err := g.Pgset("flag PKTSIZE_REAL"); err == nil {
		t.Fatal("PKTSIZE_REAL accepted without DIST_READY")
	}
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if err := g.Pgset(string(line)); err != nil {
			t.Fatalf("pgset %q: %v", line, err)
		}
	}
	if !g.DistReady() {
		t.Fatal("DIST_READY not set after complete distribution")
	}
	if err := g.Pgset("flag PKTSIZE_REAL"); err != nil {
		t.Fatal(err)
	}
	if !g.SizeReal() {
		t.Fatal("PKTSIZE_REAL not active")
	}

	// Generated frame sizes must follow the distribution: IP length + 14.
	g.Config.Count = 50000
	var got dist.Counts
	for {
		p, ok := g.Next()
		if !ok {
			break
		}
		s, err := pkt.Parse(p.Data)
		if err != nil || !s.IsUDP {
			t.Fatal("generated frame does not parse as UDP")
		}
		got.Add(int(s.IPv4.Length), 1)
	}
	for _, size := range []int{40, 52, 1500} {
		want := c.Fraction(size)
		have := got.Fraction(size)
		if math.Abs(want-have) > 0.015 {
			t.Errorf("size %d: input %.4f, generated %.4f", size, want, have)
		}
	}
	if math.Abs(got.Mean()-645) > 30 {
		t.Errorf("generated mean = %.1f", got.Mean())
	}
}

func TestReproducibility(t *testing.T) {
	mk := func() []int {
		g := New(42)
		loadMWN(t, g)
		g.Config.Count = 5000
		var sizes []int
		for {
			p, ok := g.Next()
			if !ok {
				break
			}
			sizes = append(sizes, len(p.Data))
		}
		return sizes
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("two runs with the same seed diverged")
		}
	}
	// Reset must also restart the sequence.
	g := New(42)
	loadMWN(t, g)
	g.Config.Count = 100
	var first []int
	for {
		p, ok := g.Next()
		if !ok {
			break
		}
		first = append(first, len(p.Data))
	}
	g.Reset()
	for i := 0; ; i++ {
		p, ok := g.Next()
		if !ok {
			break
		}
		if len(p.Data) != first[i] {
			t.Fatal("Reset did not restart the sequence")
		}
	}
}

func TestMACCycling(t *testing.T) {
	g := New(1)
	g.Config.Count = 9
	g.Config.PktSize = 100
	var macs []byte
	for {
		p, ok := g.Next()
		if !ok {
			break
		}
		macs = append(macs, p.Data[11]) // last byte of source MAC
	}
	for i, m := range macs {
		if int(m) != i%3 {
			t.Fatalf("macs = %v, want cycle 0,1,2", macs)
		}
	}
}

func TestDistLineSpeed(t *testing.T) {
	// §4.3.1: the enhanced generator reaches (near) line speed with the
	// realistic distribution.
	g := New(5)
	loadMWN(t, g)
	g.Config.Count = 50000
	for {
		if _, ok := g.Next(); !ok {
			break
		}
	}
	if g.AchievedRate() < 0.90e9 {
		t.Fatalf("distribution workload reached only %.0f bits/s", g.AchievedRate())
	}
}

func TestPgsetCommands(t *testing.T) {
	g := New(1)
	cmds := []string{
		"count 500",
		"delay 1000",
		"pkt_size 600",
		"src_mac_count 2",
		"dst 10.1.2.3",
		"src_min 10.9.9.9",
		"dst_mac aa:bb:cc:dd:ee:ff",
		"src_mac 00:00:00:00:00:00",
		"udp_src_min 1234",
		"udp_dst_min 4321",
		"rate 500",
	}
	for _, c := range cmds {
		if err := g.Pgset(c); err != nil {
			t.Fatalf("pgset %q: %v", c, err)
		}
	}
	if g.Config.Count != 500 || g.Config.DelayNS != 1000 || g.Config.PktSize != 600 ||
		g.Config.SrcMACCount != 2 || g.Config.UDPSrcPort != 1234 ||
		g.Config.TargetRate != 500e6 {
		t.Fatalf("config = %+v", g.Config)
	}
	p, ok := g.Next()
	if !ok {
		t.Fatal("no packet")
	}
	s, err := pkt.Parse(p.Data)
	if err != nil || !s.IsUDP {
		t.Fatal("bad frame")
	}
	if s.IPv4.Dst.String() != "10.1.2.3" || s.UDP.DstPort != 4321 {
		t.Fatalf("frame fields = %+v", s)
	}
}

func TestPgsetErrors(t *testing.T) {
	g := New(1)
	bad := []string{
		"",
		"bogus 1",
		"count -1",
		"count x",
		"delay -5",
		"dst notanip",
		"dst_mac 1:2:3",
		"flag NO_SUCH_FLAG",
		"dist 1 2 3",
		"outl 40 10", // before dist
		"rate -1",
	}
	for _, c := range bad {
		if err := g.Pgset(c); err == nil {
			t.Errorf("pgset %q succeeded, want error", c)
		}
	}
}

func TestTooManyEntryLines(t *testing.T) {
	g := New(1)
	if err := g.Pgset("dist 1000 20 1500 1 0"); err != nil {
		t.Fatal(err)
	}
	if err := g.Pgset("outl 40 10"); err != nil {
		t.Fatal(err)
	}
	if !g.DistReady() {
		t.Fatal("distribution should be ready")
	}
	if err := g.Pgset("outl 52 10"); err == nil {
		t.Fatal("extra outl line accepted")
	}
}
