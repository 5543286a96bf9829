// Package pktgen reimplements the Linux Kernel Packet Generator together
// with the thesis's packet-size-distribution enhancement (§4.3, §A.2).
//
// The generator is controlled through the same textual command interface
// the kernel module exposes via /proc ("pgset" commands), including the
// three commands the thesis adds:
//
//	dist <precision> <hist_width> <max_pktsize> <num_outliers> <num_bins>
//	outl <size> <cells>
//	hist <size> <cells>
//
// plus `flag PKTSIZE_REAL`, which only takes effect once the entered
// distribution is complete and consistent (the DIST_READY flag).
//
// Packet sizes in distribution mode are IP datagram lengths (the quantity
// createDist counts); the generator adds the 14-byte Ethernet header. In
// classic fixed-size mode, pkt_size is the frame length, matching the
// original module.
package pktgen

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"repro/internal/dist"
	"repro/internal/flows"
	"repro/internal/mix"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Flag bits (mirroring the module's flag words; only the ones the thesis
// uses are implemented).
const (
	// FlagPktSizeReal activates the packet size distribution (thesis
	// enhancement).
	FlagPktSizeReal = "PKTSIZE_REAL"
)

// Defaults matching the measurement setup (§6.3.2: generated packets carry
// dst IP 192.168.10.12, src IP 192.168.10.100, and a source MAC cycling
// between 00:00:00:00:00:00 and 00:00:00:00:00:02).
var (
	defaultSrcIP  = netip.MustParseAddr("192.168.10.100")
	defaultDstIP  = netip.MustParseAddr("192.168.10.12")
	defaultSrcMAC = pkt.MAC{0, 0, 0, 0, 0, 0}
	defaultDstMAC = pkt.MAC{0x00, 0x0e, 0x0c, 0x01, 0x02, 0x03}
)

// Config is the generator configuration, settable via Pgset or directly.
type Config struct {
	Count       int   // packets per run (0 = unlimited)
	DelayNS     int64 // artificial inter-packet gap
	PktSize     int   // fixed frame size (classic mode)
	SrcIP       netip.Addr
	DstIP       netip.Addr
	SrcMAC      pkt.MAC
	DstMAC      pkt.MAC
	SrcMACCount int // cycle the source MAC over this many addresses
	UDPSrcPort  uint16
	UDPDstPort  uint16
	// UDPSrcPortCount cycles the UDP source port over this many
	// consecutive ports starting at UDPSrcPort (the module's
	// udp_src_min/udp_src_max range). 0 or 1 keeps the fixed port — and
	// the single 5-tuple — of the measurement defaults; larger values
	// give the train genuine flow diversity for flow-level experiments.
	UDPSrcPortCount int

	// LineRate is the medium bit rate (default 1 Gbit/s).
	LineRate float64
	// PerPacketCostNS models the generating host's per-packet kernel cost.
	// gen (dual Athlon MP 2000, Syskonnect) sustained ≈938 Mbit/s with
	// 1500-byte frames and could not exceed roughly 800 kpps with minimum
	// frames, which this default reproduces.
	PerPacketCostNS float64
	// TargetRate, if nonzero, paces packets so the *wire* data rate
	// approaches this many bits/s. This is the sweep knob of Chapter 6;
	// the thesis realizes it with computed inter-packet gaps.
	TargetRate float64
}

// DefaultConfig returns the measurement defaults.
func DefaultConfig() Config {
	return Config{
		Count:           1_000_000, // "1 million packets are generated per run"
		PktSize:         1500,
		SrcIP:           defaultSrcIP,
		DstIP:           defaultDstIP,
		SrcMAC:          defaultSrcMAC,
		DstMAC:          defaultDstMAC,
		SrcMACCount:     3,
		UDPSrcPort:      9,
		UDPDstPort:      9,
		LineRate:        1e9,
		PerPacketCostNS: 1250,
	}
}

// Generator is one pktgen instance ("kernel thread" in module terms).
type Generator struct {
	Config Config

	distParams   dist.Params
	wantOutl     int
	wantHist     int
	outlEntries  []dist.Entry
	histEntries  []dist.Entry
	distribution *dist.Distribution
	distReady    bool
	sizeReal     bool

	rng   *dist.RNG
	seed  uint64
	cache map[cacheKey]cachedFrame
	// portFlow memoizes the flow hash per source-port index: of the
	// fields a frame varies (size, source MAC, source port), only the
	// port enters the flow key.
	portFlow map[int]uint64

	// Statistics (the thesis's byte-counting change: with variable sizes
	// the byte count can no longer be derived from packets × size).
	Sent      uint64
	SentBytes uint64 // frame bytes (excluding preamble/FCS/IFG)
	WireBytes uint64 // including per-frame wire overhead
	LastTime  sim.Time
}

type cacheKey struct {
	size int
	mac  int
	port int
}

// cachedFrame is one built frame and its flow hash.
type cachedFrame struct {
	data []byte
	flow uint64
}

// New creates a generator with the default configuration and a
// deterministic sequence seeded by seed.
func New(seed uint64) *Generator {
	return &Generator{
		Config:   DefaultConfig(),
		rng:      dist.NewRNG(seed),
		seed:     seed,
		cache:    make(map[cacheKey]cachedFrame),
		portFlow: make(map[int]uint64),
	}
}

// Pgset executes one command line of the /proc interface.
func (g *Generator) Pgset(cmd string) error {
	cmd = strings.TrimSpace(cmd)
	fields := strings.Fields(cmd)
	if len(fields) == 0 {
		return fmt.Errorf("pktgen: empty command")
	}
	arg := strings.TrimSpace(strings.TrimPrefix(cmd, fields[0]))
	switch fields[0] {
	case "count":
		return g.setInt(&g.Config.Count, arg, 0)
	case "delay":
		v, err := strconv.ParseInt(arg, 10, 64)
		if err != nil || v < 0 {
			return fmt.Errorf("pktgen: bad delay %q", arg)
		}
		g.Config.DelayNS = v
		return nil
	case "pkt_size":
		return g.setInt(&g.Config.PktSize, arg, 1)
	case "src_mac_count":
		return g.setInt(&g.Config.SrcMACCount, arg, 1)
	case "dst":
		a, err := netip.ParseAddr(arg)
		if err != nil {
			return fmt.Errorf("pktgen: bad dst %q", arg)
		}
		g.Config.DstIP = a
		return nil
	case "src_min":
		a, err := netip.ParseAddr(arg)
		if err != nil {
			return fmt.Errorf("pktgen: bad src %q", arg)
		}
		g.Config.SrcIP = a
		return nil
	case "dst_mac", "src_mac":
		m, err := parseMAC(arg)
		if err != nil {
			return err
		}
		if fields[0] == "dst_mac" {
			g.Config.DstMAC = m
		} else {
			g.Config.SrcMAC = m
		}
		return nil
	case "udp_src_min":
		var p int
		if err := g.setInt(&p, arg, 0); err != nil {
			return err
		}
		g.Config.UDPSrcPort = uint16(p)
		return nil
	case "udp_src_count":
		// Extension mirroring src_mac_count: cycle the UDP source port
		// over this many ports (the module expresses the same range as
		// udp_src_min/udp_src_max).
		return g.setInt(&g.Config.UDPSrcPortCount, arg, 0)
	case "udp_dst_min":
		var p int
		if err := g.setInt(&p, arg, 0); err != nil {
			return err
		}
		g.Config.UDPDstPort = uint16(p)
		return nil
	case "rate":
		// Extension: target wire rate in Mbit/s (the thesis computes the
		// equivalent delay by hand; this is the same mechanism).
		v, err := strconv.ParseFloat(arg, 64)
		if err != nil || v < 0 {
			return fmt.Errorf("pktgen: bad rate %q", arg)
		}
		g.Config.TargetRate = v * 1e6
		return nil
	case "flag":
		return g.setFlag(arg)
	case "dist":
		return g.cmdDist(fields[1:])
	case "outl":
		return g.cmdEntry(fields[1:], true)
	case "hist":
		return g.cmdEntry(fields[1:], false)
	}
	return fmt.Errorf("pktgen: unknown command %q", fields[0])
}

func (g *Generator) setInt(dst *int, arg string, min int) error {
	v, err := strconv.Atoi(arg)
	if err != nil || v < min {
		return fmt.Errorf("pktgen: bad value %q", arg)
	}
	*dst = v
	return nil
}

func (g *Generator) setFlag(name string) error {
	switch name {
	case FlagPktSizeReal:
		// "This will only succeed if the distribution is complete and
		// correct indicated by the DIST_READY flag." (§A.2.2)
		if !g.distReady {
			return fmt.Errorf("pktgen: PKTSIZE_REAL requires a complete distribution (DIST_READY not set)")
		}
		g.sizeReal = true
		return nil
	case "!" + FlagPktSizeReal:
		g.sizeReal = false
		return nil
	}
	return fmt.Errorf("pktgen: unknown flag %q", name)
}

// cmdDist handles `dist ρ σ N nΩ nbin`: reset distribution input state.
func (g *Generator) cmdDist(args []string) error {
	if len(args) != 5 {
		return fmt.Errorf("pktgen: dist wants 5 arguments")
	}
	vals := make([]int, 5)
	for i, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil || v < 0 {
			return fmt.Errorf("pktgen: bad dist argument %q", a)
		}
		vals[i] = v
	}
	g.distParams = dist.Params{Precision: vals[0], BinSize: vals[1], MaxSize: vals[2]}
	g.wantOutl, g.wantHist = vals[3], vals[4]
	g.outlEntries, g.histEntries = nil, nil
	g.distReady, g.sizeReal = false, false
	g.distribution = nil
	return g.checkDistComplete()
}

func (g *Generator) cmdEntry(args []string, outlier bool) error {
	if g.wantOutl == 0 && g.wantHist == 0 && g.distribution == nil && g.outlEntries == nil && g.histEntries == nil && g.distParams.Precision == 0 {
		return fmt.Errorf("pktgen: outl/hist before dist")
	}
	if len(args) != 2 {
		return fmt.Errorf("pktgen: outl/hist wants 2 arguments")
	}
	size, err1 := strconv.Atoi(args[0])
	cells, err2 := strconv.Atoi(args[1])
	if err1 != nil || err2 != nil || size < 0 || cells < 0 {
		return fmt.Errorf("pktgen: bad entry %v", args)
	}
	e := dist.Entry{Size: size, Cells: cells}
	if outlier {
		if len(g.outlEntries) >= g.wantOutl {
			return fmt.Errorf("pktgen: too many outl lines (expected %d)", g.wantOutl)
		}
		g.outlEntries = append(g.outlEntries, e)
	} else {
		if len(g.histEntries) >= g.wantHist {
			return fmt.Errorf("pktgen: too many hist lines (expected %d)", g.wantHist)
		}
		g.histEntries = append(g.histEntries, e)
	}
	return g.checkDistComplete()
}

// checkDistComplete is the module's check_dist_complete(): once all
// promised lines have arrived, compute the sampling arrays
// (calculate_ra_arrays()) and raise DIST_READY.
func (g *Generator) checkDistComplete() error {
	if len(g.outlEntries) != g.wantOutl || len(g.histEntries) != g.wantHist {
		return nil
	}
	if g.distParams.Precision == 0 {
		return nil
	}
	d, err := dist.FromEntries(g.distParams, g.outlEntries, g.histEntries)
	if err != nil {
		return err
	}
	g.distribution = d
	g.distReady = true
	return nil
}

// DistReady reports the DIST_READY flag.
func (g *Generator) DistReady() bool { return g.distReady }

// SizeReal reports whether PKTSIZE_REAL is active.
func (g *Generator) SizeReal() bool { return g.sizeReal }

// LoadDistribution installs a prebuilt distribution (the programmatic
// equivalent of feeding the procfs lines) and activates PKTSIZE_REAL.
func (g *Generator) LoadDistribution(d *dist.Distribution) {
	g.distParams = d.Params
	g.outlEntries = append([]dist.Entry(nil), d.Outliers...)
	g.histEntries = append([]dist.Entry(nil), d.Bins...)
	g.wantOutl, g.wantHist = len(d.Outliers), len(d.Bins)
	g.distribution = d
	g.distReady = true
	g.sizeReal = true
}

// Packet is one generated frame with its wire timing.
type Packet struct {
	// At is the time the frame has fully left the generator NIC (its last
	// bit is on the wire).
	At sim.Time
	// Data is the frame (shared across packets of equal size and MAC;
	// receivers must not modify it).
	Data []byte
	// WireLen is the frame length plus preamble/FCS/IFG overhead — the
	// bytes that occupy the medium.
	WireLen int
	// Flow is flows.KeyOf(Data).Hash(), the canonical 5-tuple hash an RSS
	// NIC computes in hardware and hands up with the descriptor: computed
	// once per flow by the generator, read by receivers instead of
	// parsing the frame again.
	Flow uint64
}

// Reset rewinds the sequence and statistics; the PRNG restarts from the
// seed so a rerun emits the identical packet train (reproducibility
// requirement, §3.2).
func (g *Generator) Reset() {
	g.rng = dist.NewRNG(g.seed)
	g.Sent, g.SentBytes, g.WireBytes = 0, 0, 0
	g.LastTime = 0
}

// nextFrameLen draws the next frame length: mod_cur_pktsize() when
// PKTSIZE_REAL is active, else the fixed pkt_size.
func (g *Generator) nextFrameLen() int {
	if g.sizeReal && g.distribution != nil {
		return g.distribution.Sample(g.rng) + pkt.EthernetHeaderLen
	}
	return g.Config.PktSize
}

// frame returns the (cached) frame for a size, MAC and source-port index.
// Frames and flow hashes are built once per generator, so addresses and
// ports must be set before the first packet.
func (g *Generator) frame(size, macIdx, portIdx int) cachedFrame {
	key := cacheKey{size, macIdx, portIdx}
	if f, ok := g.cache[key]; ok {
		return f
	}
	mac := g.Config.SrcMAC
	mac[5] += byte(macIdx)
	f := cachedFrame{data: pkt.BuildUDP(nil, pkt.UDPSpec{
		SrcMAC: mac, DstMAC: g.Config.DstMAC,
		SrcIP: g.Config.SrcIP, DstIP: g.Config.DstIP,
		SrcPort: g.Config.UDPSrcPort + uint16(portIdx), DstPort: g.Config.UDPDstPort,
		FrameLen: size,
	})}
	flow, ok := g.portFlow[portIdx]
	if !ok {
		// BuildUDP clamps to a full Ethernet/IPv4/UDP header chain, so
		// every frame has a flow key.
		k, isIP := flows.KeyOf(f.data)
		if !isIP {
			panic("pktgen: built a frame without a flow key")
		}
		flow = k.Hash()
		g.portFlow[portIdx] = flow
	}
	f.flow = flow
	g.cache[key] = f
	return f
}

// Gap is the departure step of a frame that occupies wire bytes of the
// medium: the maximum of its serialization time, the generator's
// per-packet cost and the gap implied by TargetRate, plus the configured
// delay, rounded to the nanosecond. It is a function of the wire length
// alone, so a recorded train can be paced at any rate with the
// generator's exact arithmetic.
func (c *Config) Gap(wire int) sim.Time {
	gap := float64(wire) * 8 / c.LineRate * 1e9 // serialization
	if p := c.PerPacketCostNS; p > gap {
		gap = p
	}
	if c.TargetRate > 0 {
		if r := float64(wire) * 8 / c.TargetRate * 1e9; r > gap {
			gap = r
		}
	}
	if d := float64(c.DelayNS); d > 0 {
		gap += d
	}
	return sim.Time(gap + 0.5)
}

// Next produces the next packet, or ok=false when Count is exhausted.
// Timing: the departure completion time advances by Config.Gap of the
// frame's wire length.
func (g *Generator) Next() (Packet, bool) {
	if g.Config.Count > 0 && g.Sent >= uint64(g.Config.Count) {
		return Packet{}, false
	}
	size := g.nextFrameLen()
	macIdx := 0
	if g.Config.SrcMACCount > 1 {
		macIdx = int(g.Sent % uint64(g.Config.SrcMACCount))
	}
	portIdx := 0
	if g.Config.UDPSrcPortCount > 1 {
		// Decorrelate the flow sequence from the packet sequence: a plain
		// Sent%count round-robin aliases with count-based packet samplers —
		// any sampling modulus dividing the flow count keeps exactly the
		// same flows on every cycle, which would make a uniform packet
		// sampler look flow-aware by accident.
		portIdx = int(mix.SplitMix64(g.Sent) % uint64(g.Config.UDPSrcPortCount))
	}
	f := g.frame(size, macIdx, portIdx)
	wire := len(f.data) + pkt.WireOverhead
	g.LastTime += g.Config.Gap(wire)

	p := Packet{At: g.LastTime, Data: f.data, WireLen: wire, Flow: f.flow}
	g.Sent++
	g.SentBytes += uint64(len(f.data))
	g.WireBytes += uint64(wire)
	return p, true
}

// AchievedRate returns the wire data rate of the run so far in bits/s.
func (g *Generator) AchievedRate() float64 {
	if g.LastTime == 0 {
		return 0
	}
	return float64(g.WireBytes) * 8 / g.LastTime.Seconds()
}

// FrameRate returns the frame data rate (without wire overhead) in bits/s:
// the quantity the thesis plots on its x axes.
func (g *Generator) FrameRate() float64 {
	if g.LastTime == 0 {
		return 0
	}
	return float64(g.SentBytes) * 8 / g.LastTime.Seconds()
}

func parseMAC(s string) (pkt.MAC, error) {
	var m pkt.MAC
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		return m, fmt.Errorf("pktgen: bad MAC %q", s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return m, fmt.Errorf("pktgen: bad MAC %q", s)
		}
		m[i] = byte(v)
	}
	return m, nil
}
