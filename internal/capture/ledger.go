package capture

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Cause identifies one place in the capture path where a packet can be
// lost. The causes mirror the bottlenecks the thesis dissects in its
// Chapter 5 profiling and Chapter 6 measurements: the NIC's RX descriptor
// ring, the interrupt-moderation window, the Linux per-CPU input queue
// (backlog) and per-socket receive buffer, the FreeBSD BPF double buffer,
// kernel filter rejection, and the application-side pipe, worker-queue and
// disk backpressure points.
type Cause int

const (
	// CauseNICRing: RX descriptor ring overflow (§2.2.1). Shared: the
	// packet never reached any application.
	CauseNICRing Cause = iota
	// CauseModeration: ring overflow while the card was still delaying the
	// first interrupt of a moderation window (§2.2.1) — the batching that
	// trades interrupt load against latency also grows the ring backlog.
	CauseModeration
	// CauseBacklog: Linux netdev input-queue overflow (netdev_max_backlog).
	CauseBacklog
	// CauseRcvbuf: Linux per-socket receive-buffer overflow (rmem).
	CauseRcvbuf
	// CauseBPFBuf: FreeBSD BPF store/hold double buffer full (catchpacket
	// rejecting before the copy, §2.1.1).
	CauseBPFBuf
	// CauseFilter: the kernel filter rejected the packet for this
	// application. Not a malfunction — but the packet is not captured, so
	// conservation must account for it.
	CauseFilter
	// CausePipe: packet lost at the gzip pipe. The modeled pipe blocks the
	// producer instead of dropping, so this stays zero unless a future
	// model variant sheds at the fifo.
	CausePipe
	// CauseWorker: packet lost at the analysis worker queue (blocks today,
	// see CausePipe).
	CauseWorker
	// CauseDisk: packet lost at the disk write-back queue (blocks today,
	// see CausePipe).
	CauseDisk
	// CauseAbandoned: in flight when the run hit the safety cap and was
	// truncated (Stats.Truncated): still in the ring, backlog, socket or
	// BPF buffers, or inside an unfinished read batch. Distinct from the
	// modeled drops above — these packets were not lost by the system under
	// test but by the measurement ending.
	CauseAbandoned
	// CauseFaultSplitter: frames lost on a degraded splitter leg (injected
	// by the fault model, internal/faults): the switch counted them but the
	// sniffer's fiber never delivered them. Booked before the NIC, so the
	// loss is shared by every application on the sniffer and the
	// conservation check balances against the switch's ground truth.
	CauseFaultSplitter
	// CauseFaultGenerator: frames the generator was supposed to emit but
	// never did (injected underrun or mid-train stall). Booked when a
	// faulted repetition is normalized against the intended train length.
	CauseFaultGenerator
	// CauseShedUniform: packets the application's uniform 1-in-N sampling
	// policy deliberately declined after reading them from the OS (see
	// Policy). Shed is not loss: the application chose not to process the
	// packet, so the cause is per-application and distinct from every
	// buffer-overflow cause above.
	CauseShedUniform
	// CauseShedFlow: packets declined by the flow-aware sampling policy
	// (whole 5-tuple flows hash-selected out of the kept set).
	CauseShedFlow
	// CauseShedAdaptive: packets declined by the queue-depth feedback
	// controller while it was backing off under load.
	CauseShedAdaptive
	// CauseRSSRing: overflow of one RSS RX ring (modern multi-queue NIC).
	// Shared: like the legacy ring, the packet never left the card.
	CauseRSSRing
	// CausePollBudget: RSS ring overflow while the last service pass left
	// packets behind because its NAPI budget / poll burst was exhausted —
	// the batching limit at work, not raw consumer overload (the modern
	// analogue of the moderation-vs-nic-ring attribution).
	CausePollBudget
	// CauseUmemFill: the AF_XDP UMEM frame pool was exhausted when the
	// packet reached XDP — the fill ring ran dry because applications were
	// not returning frames fast enough. Shared: no socket got the packet.
	CauseUmemFill
	// CausePCIe: the NIC's internal FIFO overflowed because the PCIe /
	// memory-bus DMA ceiling (arch.Profile.PCIeGbps, MemBWGbps) is below
	// the offered rate — at 40/100G the host bus, not the CPU, is the
	// first wall. Shared: the frame never reached host memory.
	CausePCIe

	NumCauses
)

// String returns the short column/key name of the cause.
func (c Cause) String() string {
	switch c {
	case CauseNICRing:
		return "nic-ring"
	case CauseModeration:
		return "moderation"
	case CauseBacklog:
		return "backlog"
	case CauseRcvbuf:
		return "rcvbuf"
	case CauseBPFBuf:
		return "bpf-buffer"
	case CauseFilter:
		return "filter"
	case CausePipe:
		return "pipe"
	case CauseWorker:
		return "worker-queue"
	case CauseDisk:
		return "disk-queue"
	case CauseAbandoned:
		return "abandoned"
	case CauseFaultSplitter:
		return "fault-splitter"
	case CauseFaultGenerator:
		return "fault-generator"
	case CauseShedUniform:
		return "shed-uniform"
	case CauseShedFlow:
		return "shed-flow"
	case CauseShedAdaptive:
		return "shed-adaptive"
	case CauseRSSRing:
		return "rss-ring"
	case CausePollBudget:
		return "poll-budget"
	case CauseUmemFill:
		return "umem-fill"
	case CausePCIe:
		return "pcie-bus"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// causesByName is the one canonical rendering order of the causes:
// sorted by name, computed once. Declaration order is an implementation
// detail (new causes are appended wherever the model grows them); every
// place that renders a ledger — Stats.Explain, the -why table, the
// NDJSON ledger object, the /metrics cause labels — iterates this slice
// so the serialization order is deterministic and identical everywhere.
var causesByName = func() []Cause {
	cs := make([]Cause, NumCauses)
	for c := Cause(0); c < NumCauses; c++ {
		cs[c] = c
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].String() < cs[j].String() })
	return cs
}()

// CausesByName returns every cause in the canonical rendering order
// (sorted by name). Callers must not mutate the returned slice.
func CausesByName() []Cause { return causesByName }

// Shared reports whether drops of this cause happen before the
// per-application fan-out: a shared drop is recorded once but costs every
// attached application the packet, so conservation weighs it by the number
// of applications. Per-app causes (rcvbuf, BPF buffer, filter, abandoned
// remnants) are recorded once per affected application already.
func (c Cause) Shared() bool {
	return c == CauseNICRing || c == CauseModeration || c == CauseBacklog ||
		c == CauseFaultSplitter || c == CauseFaultGenerator ||
		c == CauseRSSRing || c == CausePollBudget || c == CauseUmemFill ||
		c == CausePCIe
}

// DropRecord accumulates the drops of one cause: packet and byte counts
// plus the simulated timestamps of the first and last drop (the window in
// which the bottleneck was active).
type DropRecord struct {
	Packets uint64
	Bytes   uint64
	First   sim.Time
	Last    sim.Time
}

// Ledger is the per-cause drop accounting of one run. The zero value is
// ready to use; the type is comparable so Stats values remain usable with
// reflect.DeepEqual-style assertions.
type Ledger struct {
	Drops [NumCauses]DropRecord
}

// Record books one dropped packet of wire/capture size bytes at time now.
func (l *Ledger) Record(c Cause, bytes int, now sim.Time) {
	l.RecordN(c, 1, uint64(bytes), now)
}

// RecordN books pkts dropped packets totalling bytes at time now.
func (l *Ledger) RecordN(c Cause, pkts int, bytes uint64, now sim.Time) {
	if pkts <= 0 {
		return
	}
	d := &l.Drops[c]
	if d.Packets == 0 || now < d.First {
		d.First = now
	}
	if now > d.Last {
		d.Last = now
	}
	d.Packets += uint64(pkts)
	d.Bytes += bytes
}

// Merge folds another ledger into l (used to aggregate repetitions of one
// measurement point). First/Last keep the extreme per-run timestamps.
func (l *Ledger) Merge(o Ledger) {
	for c := Cause(0); c < NumCauses; c++ {
		od := o.Drops[c]
		if od.Packets == 0 {
			continue
		}
		d := &l.Drops[c]
		if d.Packets == 0 || od.First < d.First {
			d.First = od.First
		}
		if od.Last > d.Last {
			d.Last = od.Last
		}
		d.Packets += od.Packets
		d.Bytes += od.Bytes
	}
}

// Total returns the overall dropped packet and byte counts.
func (l Ledger) Total() (pkts, bytes uint64) {
	for c := Cause(0); c < NumCauses; c++ {
		pkts += l.Drops[c].Packets
		bytes += l.Drops[c].Bytes
	}
	return pkts, bytes
}

// SharedPackets returns the packets dropped before the per-app fan-out.
func (l Ledger) SharedPackets() uint64 {
	var n uint64
	for c := Cause(0); c < NumCauses; c++ {
		if c.Shared() {
			n += l.Drops[c].Packets
		}
	}
	return n
}

// NICPackets returns the packets the NIC dropped before any stack saw
// them: legacy and RSS ring overflows (moderation and poll budget
// included) and the PCIe FIFO.
func (l Ledger) NICPackets() uint64 {
	return l.Drops[CauseNICRing].Packets + l.Drops[CauseModeration].Packets +
		l.Drops[CauseRSSRing].Packets + l.Drops[CausePollBudget].Packets +
		l.Drops[CausePCIe].Packets
}

// ShedCauses lists the deliberate-shedding causes in declaration order.
var ShedCauses = []Cause{CauseShedUniform, CauseShedFlow, CauseShedAdaptive}

// Shed reports whether drops of this cause were deliberate policy
// decisions (load shedding) rather than losses the system suffered.
func (c Cause) Shed() bool {
	return c == CauseShedUniform || c == CauseShedFlow || c == CauseShedAdaptive
}

// ShedPackets returns the packets deliberately shed by sampling policies —
// a subset of PerAppPackets, since shedding happens after the per-app
// fan-out.
func (l Ledger) ShedPackets() uint64 {
	var n uint64
	for _, c := range ShedCauses {
		n += l.Drops[c].Packets
	}
	return n
}

// PerAppPackets returns the packets dropped after the per-app fan-out.
func (l Ledger) PerAppPackets() uint64 {
	var n uint64
	for c := Cause(0); c < NumCauses; c++ {
		if !c.Shared() {
			n += l.Drops[c].Packets
		}
	}
	return n
}

// MarshalJSON renders the ledger as an object keyed by cause name, causes
// in the canonical name-sorted order (CausesByName), zero causes omitted.
func (l Ledger) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, c := range CausesByName() {
		d := l.Drops[c]
		if d.Packets == 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%q:{\"packets\":%d,\"bytes\":%d,\"firstNS\":%d,\"lastNS\":%d}",
			c.String(), d.Packets, d.Bytes, int64(d.First), int64(d.Last))
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// CauseFromString is the inverse of Cause.String.
func CauseFromString(s string) (Cause, bool) {
	for c := Cause(0); c < NumCauses; c++ {
		if c.String() == s {
			return c, true
		}
	}
	return 0, false
}

// UnmarshalJSON parses the cause-keyed object MarshalJSON produces, so a
// ledger round-trips exactly through JSON — the property the campaign
// journal relies on to replay recorded cells byte-identically.
func (l *Ledger) UnmarshalJSON(b []byte) error {
	*l = Ledger{}
	var m map[string]struct {
		Packets uint64 `json:"packets"`
		Bytes   uint64 `json:"bytes"`
		FirstNS int64  `json:"firstNS"`
		LastNS  int64  `json:"lastNS"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	for name, d := range m {
		c, ok := CauseFromString(name)
		if !ok {
			return fmt.Errorf("capture: unknown drop cause %q in ledger JSON", name)
		}
		l.Drops[c] = DropRecord{
			Packets: d.Packets, Bytes: d.Bytes,
			First: sim.Time(d.FirstNS), Last: sim.Time(d.LastNS),
		}
	}
	return nil
}

// BookFaultLoss accounts pkts frames (bytes total, last seen around time
// at) that an injected fault withheld from a run: the testbed's ground
// truth says they were offered, but the system under test never saw them
// (degraded splitter leg, generator underrun). The frames are booked under
// the fault cause — which is Shared, since no application could capture
// them — and added back to Generated, so CheckConservation balances the
// run against the ground-truth count instead of the shortened train.
func (s *Stats) BookFaultLoss(c Cause, pkts int, bytes uint64, at sim.Time) {
	if pkts <= 0 {
		return
	}
	s.Ledger.RecordN(c, pkts, bytes, at)
	s.Generated += uint64(pkts)
}

// Gauge tracks the occupancy of one finite buffer over a run: the
// high-water mark and the number of distinct overflow episodes. Repeated
// drops while the buffer stays saturated count as one episode; the episode
// ends when the level recedes below capacity.
type Gauge struct {
	Name      string
	Capacity  int
	HighWater int
	Episodes  uint64
	over      bool
}

// observe records the current fill level.
func (g *Gauge) observe(level int) {
	if level > g.HighWater {
		g.HighWater = level
	}
	if g.over && level < g.Capacity {
		g.over = false
	}
}

// overflow marks a drop/block at this buffer, starting a new episode if
// the buffer was not already saturated.
func (g *Gauge) overflow() {
	if !g.over {
		g.over = true
		g.Episodes++
	}
}

func (g *Gauge) reset() {
	g.HighWater, g.Episodes, g.over = 0, 0, false
}

// GaugeStat is the per-run snapshot of one buffer gauge.
type GaugeStat struct {
	Name      string `json:"name"`
	Capacity  int    `json:"capacity"`
	HighWater int    `json:"highWater"`
	Episodes  uint64 `json:"episodes,omitempty"`
}
