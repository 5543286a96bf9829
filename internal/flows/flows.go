// Package flows implements per-flow accounting over captured packets: the
// kind of connection-level bookkeeping the thesis's motivating
// applications (Bro, the time machine, traffic analysis) perform on every
// packet, and the reason full capture matters — "if only few packets per
// connection are required, it is exceptionally bad if exactly these
// packets are lost" (§1.1).
//
// The table is used by cmd/capture's -flows mode and doubles as the
// reference for the FlowTrack per-packet load in the capture simulation.
// KeyOf and Key.Hash also give every generated frame its flow hash:
// pktgen computes it once per flow and carries it with each packet, and
// the capture simulation steers RSS rings, samples flows and counts
// flows by that hash.
package flows

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"time"

	"repro/internal/pkt"
)

// Key identifies a flow. With bidirectional tables the endpoints are
// canonically ordered so both directions map to one flow.
type Key struct {
	SrcIP, DstIP     netip.Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

func (k Key) String() string {
	proto := fmt.Sprintf("proto-%d", k.Proto)
	switch k.Proto {
	case pkt.ProtoTCP:
		proto = "tcp"
	case pkt.ProtoUDP:
		proto = "udp"
	case pkt.ProtoICMP:
		proto = "icmp"
	}
	if k.Proto == pkt.ProtoTCP || k.Proto == pkt.ProtoUDP {
		return fmt.Sprintf("%s %s:%d <-> %s:%d", proto, k.SrcIP, k.SrcPort, k.DstIP, k.DstPort)
	}
	return fmt.Sprintf("%s %s <-> %s", proto, k.SrcIP, k.DstIP)
}

// Stat accumulates one flow's counters.
type Stat struct {
	Packets     uint64
	Bytes       uint64 // IP bytes
	First, Last time.Time
	SYNs, FINs  uint64 // TCP handshake markers seen
}

// Table is a flow table. The zero value is not ready: use New.
type Table struct {
	m             map[Key]*Stat
	bidirectional bool

	Observed uint64 // packets fed in
	NonIP    uint64 // packets skipped (no IPv4 header)
}

// New creates a table. bidirectional folds both directions of a
// connection into one flow (like Bro's connection records).
func New(bidirectional bool) *Table {
	return &Table{m: make(map[Key]*Stat), bidirectional: bidirectional}
}

// Len returns the number of distinct flows.
func (t *Table) Len() int { return len(t.m) }

// Observe accounts one captured frame.
func (t *Table) Observe(ts time.Time, frame []byte) {
	t.Observed++
	s, err := pkt.Parse(frame)
	if err != nil || !s.IsIPv4 {
		t.NonIP++
		return
	}
	k := Key{SrcIP: s.IPv4.Src, DstIP: s.IPv4.Dst, Proto: s.IPv4.Protocol}
	var syn, fin bool
	switch {
	case s.IsUDP:
		k.SrcPort, k.DstPort = s.UDP.SrcPort, s.UDP.DstPort
	case s.IsTCP:
		k.SrcPort, k.DstPort = s.TCP.SrcPort, s.TCP.DstPort
		syn = s.TCP.Flags&pkt.TCPFlagSYN != 0
		fin = s.TCP.Flags&pkt.TCPFlagFIN != 0
	}
	if t.bidirectional {
		k = canonical(k)
	}
	st := t.m[k]
	if st == nil {
		st = &Stat{First: ts}
		t.m[k] = st
	}
	st.Packets++
	st.Bytes += uint64(s.IPv4.Length)
	st.Last = ts
	if syn {
		st.SYNs++
	}
	if fin {
		st.FINs++
	}
}

// KeyOf parses one frame and returns its canonical (bidirectional) flow
// key, ok=false for non-IPv4 frames. It is the 5-tuple extraction the
// generator's per-packet flow hash shares with the flow table, so the
// capture simulation's "keep whole flows" means the same flows Observe
// would account.
func KeyOf(frame []byte) (Key, bool) {
	s, err := pkt.Parse(frame)
	if err != nil || !s.IsIPv4 {
		return Key{}, false
	}
	k := Key{SrcIP: s.IPv4.Src, DstIP: s.IPv4.Dst, Proto: s.IPv4.Protocol}
	switch {
	case s.IsUDP:
		k.SrcPort, k.DstPort = s.UDP.SrcPort, s.UDP.DstPort
	case s.IsTCP:
		k.SrcPort, k.DstPort = s.TCP.SrcPort, s.TCP.DstPort
	}
	return canonical(k), true
}

// Hash returns a deterministic 64-bit FNV-1a hash of the key. The hash is
// platform- and run-independent, so hash-based flow selection (sampling
// policies) is reproducible across processes.
func (k Key) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for _, a := range [2]netip.Addr{k.SrcIP, k.DstIP} {
		if !a.IsValid() {
			mix(0)
			continue
		}
		b16 := a.As16()
		for _, b := range b16 {
			mix(b)
		}
	}
	mix(byte(k.SrcPort >> 8))
	mix(byte(k.SrcPort))
	mix(byte(k.DstPort >> 8))
	mix(byte(k.DstPort))
	mix(k.Proto)
	return h
}

// canonical orders the endpoints so A→B and B→A share a key.
func canonical(k Key) Key {
	swap := false
	switch k.SrcIP.Compare(k.DstIP) {
	case 1:
		swap = true
	case 0:
		swap = k.SrcPort > k.DstPort
	}
	if swap {
		k.SrcIP, k.DstIP = k.DstIP, k.SrcIP
		k.SrcPort, k.DstPort = k.DstPort, k.SrcPort
	}
	return k
}

// Entry pairs a key with its counters for reporting.
type Entry struct {
	Key  Key
	Stat Stat
}

// Top returns the n flows with the most bytes (ties broken by packets,
// then by key string for determinism). n <= 0 returns all flows.
func (t *Table) Top(n int) []Entry {
	out := make([]Entry, 0, len(t.m))
	for k, s := range t.m {
		out = append(out, Entry{k, *s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stat.Bytes != out[j].Stat.Bytes {
			return out[i].Stat.Bytes > out[j].Stat.Bytes
		}
		if out[i].Stat.Packets != out[j].Stat.Packets {
			return out[i].Stat.Packets > out[j].Stat.Packets
		}
		return out[i].Key.String() < out[j].Key.String()
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// Report renders the top-n flows as a table.
func (t *Table) Report(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %d flows over %d packets (%d non-IP skipped)\n",
		t.Len(), t.Observed, t.NonIP)
	fmt.Fprintln(&b, "# packets\tbytes\tduration\tflow")
	for _, e := range t.Top(n) {
		fmt.Fprintf(&b, "%d\t%d\t%s\t%s\n",
			e.Stat.Packets, e.Stat.Bytes,
			e.Stat.Last.Sub(e.Stat.First).Truncate(time.Microsecond), e.Key)
	}
	return b.String()
}
