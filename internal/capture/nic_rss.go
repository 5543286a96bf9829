package capture

import (
	"fmt"

	"repro/internal/flows"
	"repro/internal/sim"
)

// ringServicer is the stack-side trigger of the RSS NIC: the NIC calls
// ringKick(r) when a packet lands in ring r so an interrupt-driven stack
// can schedule service. A poll-mode stack services rings on its own clock
// and leaves the NIC's kick unset.
type ringServicer interface {
	ringKick(r int)
}

// rxRing is one RSS receive ring with its own occupancy gauge, delivery
// counter and timestamp state (modern NICs stamp per service pass, one
// timestamp shared by the pass's batch — the same artifact as the legacy
// burst stamp, per ring).
type rxRing struct {
	pkts      []kpkt
	deferred  bool // the last service pass left packets behind (budget/burst cap)
	delivered uint64
	gauge     *Gauge
	lastStamp sim.Time
}

// rssNIC models a modern multi-queue NIC: the 5-tuple of each arriving
// frame is hashed (reusing internal/flows — the RSS Toeplitz stand-in)
// onto one of RXRings per-core receive rings. Before a frame can land in
// a ring it must cross the host bus: when the architecture declares a
// PCIe / memory-bandwidth ceiling, DMA is serialized at that rate through
// a bounded on-NIC FIFO, and FIFO overflow is the pcie-bus drop cause —
// at 100G this, not the CPU, is often the first wall.
type rssNIC struct {
	sys   *System
	rings []rxRing
	kick  ringServicer // nil: poll-mode, no interrupts

	// DMA ceiling state (dmaNsPerByte == 0: no ceiling, frames land
	// immediately like the legacy NIC).
	dmaNsPerByte float64
	fifoCap      int
	fifoBytes    int
	fifoGauge    *Gauge
	linkFree     sim.Time
	dmaPkts      int
	dmaBytes     uint64

	Delivered uint64 // packets handed to the stack
}

func newRSSNIC(s *System, nrings int) *rssNIC {
	n := &rssNIC{sys: s}
	if gbps := s.Arch.PCIeGbps; gbps > 0 {
		if m := s.Arch.MemBWGbps; m > 0 && m < gbps {
			gbps = m
		}
		n.dmaNsPerByte = 8 / gbps
		n.fifoCap = s.Costs.NICFifoBytes
		n.fifoGauge = s.newGauge("nic-fifo", -1, n.fifoCap)
	} else if m := s.Arch.MemBWGbps; m > 0 {
		n.dmaNsPerByte = 8 / m
		n.fifoCap = s.Costs.NICFifoBytes
		n.fifoGauge = s.newGauge("nic-fifo", -1, n.fifoCap)
	}
	n.rings = make([]rxRing, nrings)
	for i := range n.rings {
		n.rings[i].gauge = s.newGauge(fmt.Sprintf("rss-ring%d", i), -1, s.Costs.RSSRingSlots)
	}
	return n
}

func (n *rssNIC) reset() {
	for i := range n.rings {
		r := &n.rings[i]
		r.pkts = r.pkts[:0]
		r.deferred = false
		r.delivered = 0
		r.lastStamp = 0
	}
	n.fifoBytes, n.dmaPkts, n.dmaBytes = 0, 0, 0
	n.linkFree = 0
	n.Delivered = 0
}

// ringOf steers a frame: RSS hashes the 5-tuple onto a ring; frames
// without a parseable flow key (non-UDP/IP) land on ring 0, like real RSS
// falling back to a default queue.
func (n *rssNIC) ringOf(data []byte) int {
	if k, ok := flows.KeyOf(data); ok {
		return int(k.Hash() % uint64(len(n.rings)))
	}
	return 0
}

// Arrive is called at the simulated instant the frame has fully arrived
// on the wire. With a DMA ceiling the frame first queues in the NIC FIFO
// and lands in its ring when its DMA completes.
func (n *rssNIC) Arrive(data []byte) {
	arrival := n.sys.Sim.Now()
	if n.dmaNsPerByte == 0 {
		n.land(data, arrival)
		return
	}
	if n.fifoBytes+len(data) > n.fifoCap {
		n.sys.recordDrop(CausePCIe, len(data))
		n.fifoGauge.overflow()
		return
	}
	n.fifoBytes += len(data)
	n.fifoGauge.observe(n.fifoBytes)
	n.dmaPkts++
	n.dmaBytes += uint64(len(data))
	start := n.linkFree
	if start < arrival {
		start = arrival
	}
	done := start + sim.Time(float64(len(data))*n.dmaNsPerByte+0.5)
	n.linkFree = done
	n.sys.Sim.At(done, func() {
		n.fifoBytes -= len(data)
		n.fifoGauge.observe(n.fifoBytes)
		n.dmaPkts--
		n.dmaBytes -= uint64(len(data))
		n.land(data, arrival)
	})
}

// land places a DMA-complete frame into its RSS ring.
func (n *rssNIC) land(data []byte, arrival sim.Time) {
	r := n.ringOf(data)
	ring := &n.rings[r]
	if len(ring.pkts) >= n.sys.Costs.RSSRingSlots {
		// Attribute the overflow: a ring that filled while the servicer
		// was deliberately leaving packets behind (budget/burst cap hit
		// with more queued) overflowed because of the batching limit.
		cause := CauseRSSRing
		if ring.deferred {
			cause = CausePollBudget
		}
		n.sys.recordDrop(cause, len(data))
		ring.gauge.overflow()
		return
	}
	ring.pkts = append(ring.pkts, kpkt{data: data, arrival: arrival})
	ring.gauge.observe(len(ring.pkts))
	if n.kick != nil {
		n.kick.ringKick(r)
	}
}

// depth returns the current occupancy of ring r.
func (n *rssNIC) depth(r int) int { return len(n.rings[r].pkts) }

// popBurst removes up to max packets from ring r and stamps each with the
// current instant — the service pass's entry time, shared by the whole
// batch (the per-ring analogue of NIC.stamp: batching still merges
// inter-packet gaps). It records whether packets were left behind, which
// attributes subsequent overflows to the batching budget.
func (n *rssNIC) popBurst(r, max int) []kpkt {
	ring := &n.rings[r]
	count := len(ring.pkts)
	if count > max {
		count = max
	}
	if count == 0 {
		ring.deferred = false
		return nil
	}
	batch := popFront(&ring.pkts, count)
	ring.deferred = len(ring.pkts) > 0
	ring.delivered += uint64(count)
	n.Delivered += uint64(count)

	ts := n.sys.Sim.Now()
	for _, p := range batch {
		err := ts - p.arrival
		if err < 0 {
			err = -err
		}
		n.sys.tsStamped++
		n.sys.tsErrSum += err
		if err > n.sys.tsErrMax {
			n.sys.tsErrMax = err
		}
		if ts == ring.lastStamp {
			n.sys.tsTies++
		}
		ring.lastStamp = ts
	}
	return batch
}

// idle reports whether the NIC holds no packets (no DMA in flight, all
// rings empty).
func (n *rssNIC) idle() bool {
	if n.dmaPkts > 0 {
		return false
	}
	for i := range n.rings {
		if len(n.rings[i].pkts) > 0 {
			return false
		}
	}
	return true
}

// remnants counts the packets still inside the NIC (DMA in flight plus
// ring contents) for truncation accounting.
func (n *rssNIC) remnants() (pkts int, bytes uint64) {
	pkts, bytes = n.dmaPkts, n.dmaBytes
	for i := range n.rings {
		for _, p := range n.rings[i].pkts {
			pkts++
			bytes += uint64(len(p.data))
		}
	}
	return pkts, bytes
}

// RingDelivered exposes the per-ring delivery counts (RSS determinism
// tests and diagnostics).
func (n *rssNIC) RingDelivered() []uint64 {
	out := make([]uint64, len(n.rings))
	for i := range n.rings {
		out[i] = n.rings[i].delivered
	}
	return out
}
