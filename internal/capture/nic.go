package capture

import "repro/internal/sim"

// irqStack is the interrupt-context half of the two legacy stacks, which
// the single-queue NIC drives packet by packet.
type irqStack interface {
	// irqCost prices the interrupt-context work for one packet (beyond
	// the shared driver cost) and may precompute state passed to irqDone.
	irqCost(data []byte) (fixedNS, memBytes float64, aux any)
	// irqDone applies the interrupt-context state change when the task
	// completes (enqueue, copy into buffers, wakeups, drops).
	irqDone(data []byte, aux any)
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

	ring      []kpkt
	irqActive bool
	modWait   bool  // first interrupt delayed by the moderation window
	inflight  *kpkt // packet popped from the ring, hardirq task running
	gauge     *Gauge

	Delivered uint64 // packets handed to the stack

	burstStamp sim.Time // timestamp shared by the current handler burst
	lastStamp  sim.Time
}

func (n *NIC) reset() {
	n.ring = n.ring[:0]
	n.irqActive, n.modWait, n.inflight = false, false, nil
	n.Delivered = 0
	n.burstStamp, n.lastStamp = 0, 0
}

// Arrive is called at the simulated instant the frame has fully arrived.
func (n *NIC) Arrive(data []byte) {
	if len(n.ring) >= n.sys.Costs.RingSlots {
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
	n.ring = append(n.ring, kpkt{data: data, arrival: n.sys.Sim.Now()})
	n.gauge.observe(len(n.ring))
	if !n.irqActive {
		n.irqActive = true
		if d := n.sys.Costs.ModerationDelayNS; d > 0 {
			n.modWait = true
			n.sys.Sim.After(sim.Time(d), func() {
				n.modWait = false
				n.burstStamp = n.sys.Sim.Now()
				n.serviceNext(true)
			})
		} else {
			n.burstStamp = n.sys.Sim.Now()
			n.serviceNext(true)
		}
	}
}

// serviceNext submits the hardirq task for the next ring entry. The task
// cost is the driver per-packet cost plus whatever interrupt-context work
// the OS stack performs for this packet (FreeBSD: filtering and buffer
// copies; Linux: skb allocation and backlog enqueue).
func (n *NIC) serviceNext(first bool) {
	p := n.ring[0]
	copy(n.ring, n.ring[1:])
	n.ring = n.ring[:len(n.ring)-1]
	n.inflight = &p

	fixed, memBytes, aux := n.irq.irqCost(p.data)
	fixed += n.sys.Costs.DriverRxNS
	if first {
		fixed += n.sys.Costs.IRQEntryNS
	}
	n.sys.cpu0().Submit(&sim.Task{
		Name:         "rx-irq",
		Prio:         sim.PrioHardIRQ,
		FixedNS:      n.sys.kfixed(fixed),
		MemBytes:     memBytes,
		MemNsPerByte: n.sys.kmemNs(),
		OnDone: func() {
			n.Delivered++
			n.stamp(p)
			n.inflight = nil // custody passes to the stack
			n.irq.irqDone(p.data, aux)
			if len(n.ring) > 0 {
				n.serviceNext(false)
			} else {
				n.irqActive = false
			}
		},
	})
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
