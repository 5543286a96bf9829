package capture

import "repro/internal/sim"

// irqStack is the interrupt-context half of the two legacy stacks, which
// the single-queue NIC drives packet by packet. One hardirq is in flight
// at a time, so a stack may keep what irqCost decided for irqDone.
type irqStack interface {
	// irqCost prices the interrupt-context work for one packet (beyond
	// the shared driver cost).
	irqCost(p kpkt) (fixedNS, memBytes float64)
	// irqDone applies the interrupt-context state change when the task
	// completes (enqueue, copy into buffers, wakeups, drops).
	irqDone(p kpkt)
}

// NIC models the Intel 82544EI receive path: a DMA descriptor ring of
// RingSlots packets and an interrupt per packet, with natural coalescing —
// while the handler is busy, further arrivals only refill the ring, and the
// handler keeps draining without a fresh interrupt (this is also how
// receive livelock manifests: under overload the handler re-arms itself
// forever and starves everything below hardirq priority, §2.2.1).
// Optional interrupt moderation delays the first interrupt to batch
// arrivals, at the price of timestamp accuracy.
type NIC struct {
	sys *System
	irq irqStack // the legacy stack's interrupt-context half

	ring      fifo[kpkt]
	irqActive bool
	modWait   bool // first interrupt delayed by the moderation window
	inIRQ     bool // cur is popped from the ring, its hardirq task running
	cur       kpkt
	gauge     *Gauge

	hardirq  sim.Task // the handler run for cur, bound once
	moderate func()   // the end of a moderation window, bound once

	Delivered uint64 // packets handed to the stack

	burstStamp sim.Time // timestamp shared by the current handler burst
	lastStamp  sim.Time
}

func newNIC(s *System) *NIC {
	n := &NIC{sys: s}
	n.gauge = s.newGauge("nic-ring", -1, s.Costs.RingSlots)
	n.hardirq = sim.Task{Name: "rx-irq", Prio: sim.PrioHardIRQ, OnDone: n.irqDone}
	n.moderate = n.moderationEnd
	return n
}

func (n *NIC) reset() {
	n.ring.reset()
	n.irqActive, n.modWait, n.inIRQ = false, false, false
	n.Delivered = 0
	n.burstStamp, n.lastStamp = 0, 0
}

// holding reports whether a packet is in the ring or in the handler.
func (n *NIC) holding() bool { return n.ring.len() > 0 || n.irqActive }

// Arrive is called at the simulated instant the frame has fully arrived;
// flow is its flow hash.
func (n *NIC) Arrive(data []byte, flow uint64) {
	if n.ring.len() >= n.sys.Costs.RingSlots {
		// Attribute the overflow: a ring that filled while the card was
		// still delaying the first interrupt of a moderation window is the
		// moderation trade-off at work, not handler overload.
		cause := CauseNICRing
		if n.modWait {
			cause = CauseModeration
		}
		n.sys.recordDrop(cause, len(data))
		n.gauge.overflow()
		return
	}
	n.ring.push(kpkt{data: data, arrival: n.sys.Sim.Now(), flow: flow})
	n.gauge.observe(n.ring.len())
	if !n.irqActive {
		n.irqActive = true
		if d := n.sys.Costs.ModerationDelayNS; d > 0 {
			n.modWait = true
			n.sys.Sim.After(sim.Time(d), n.moderate)
		} else {
			n.burstStamp = n.sys.Sim.Now()
			n.serviceNext(true)
		}
	}
}

// moderationEnd raises the interrupt a moderation window delayed.
func (n *NIC) moderationEnd() {
	n.modWait = false
	n.burstStamp = n.sys.Sim.Now()
	n.serviceNext(true)
}

// serviceNext submits the hardirq task for the next ring entry. The task
// cost is the driver per-packet cost plus whatever interrupt-context work
// the OS stack performs for this packet (FreeBSD: filtering and buffer
// copies; Linux: skb allocation and backlog enqueue).
func (n *NIC) serviceNext(first bool) {
	n.cur = n.ring.pop()
	n.inIRQ = true

	fixed, memBytes := n.irq.irqCost(n.cur)
	fixed += n.sys.Costs.DriverRxNS
	if first {
		fixed += n.sys.Costs.IRQEntryNS
	}
	t := &n.hardirq
	t.FixedNS, t.MemBytes, t.MemNsPerByte = n.sys.kfixed(fixed), memBytes, n.sys.kmemNs()
	n.sys.cpu0().Submit(t)
}

// irqDone completes the handler run for cur and drains the ring on.
func (n *NIC) irqDone() {
	p := n.cur
	n.Delivered++
	n.stamp(p)
	n.inIRQ = false // custody passes to the stack
	n.irq.irqDone(p)
	if n.ring.len() > 0 {
		n.serviceNext(false)
	} else {
		n.irqActive = false
	}
}

// stamp records the packet's kernel timestamp ("usually performed by the
// receiving interrupt", §2.2.1): every packet drained by one handler burst
// carries the burst's entry time, so batching — from moderation or from
// overload coalescing — produces exactly the artifact the thesis warns
// about: "the timestamping ... assigns the same timestamp to multiple
// packets" and the inter-packet gaps are lost.
func (n *NIC) stamp(p kpkt) {
	ts := n.burstStamp
	err := ts - p.arrival
	if err < 0 {
		err = -err // arrived while the burst was already draining
	}
	n.sys.tsStamped++
	n.sys.tsErrSum += err
	if err > n.sys.tsErrMax {
		n.sys.tsErrMax = err
	}
	if ts == n.lastStamp {
		n.sys.tsTies++
	}
	n.lastStamp = ts
}
