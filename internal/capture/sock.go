package capture

import "repro/internal/sim"

// This file holds the receive path the stacks share (§2.1–2.2): the
// per-application socket, the kernel pass that filters a batch into the
// sockets, and the popping of packets off a queue. The stacks differ only
// in where a pass runs, what it costs, and how the reader copies.

// sock is one application's receive queue in the kernel: the PF_PACKET
// socket of the Linux and RSS stacks, the poll-mode app ring or the XSK
// ring. Its capacity is a byte budget (the rcvbuf, where a packet takes
// its capture length plus SkbOverhead) or a slot count (the two rings,
// where a packet takes one slot).
type sock struct {
	app      *App
	queue    []kpkt
	frames   []*xframe // zero copy: the UMEM frame behind each queued packet
	capacity int       // bytes or slots
	used     int       // bytes or slots the queue takes
	slots    bool      // capacity counts packets, not bytes
	overhead int       // per-packet bytes beyond the capture length
	// sinceWake counts the packets enqueued since the reader's last
	// wakeup (zero copy batches its wakeups).
	sinceWake int
	gauge     *Gauge
	Enqueued  uint64
}

// newSocks opens one sock per application, each with its own gauge.
func (s *System) newSocks(gauge string, capacity int, slots bool) []*sock {
	socks := make([]*sock, len(s.apps))
	for i, a := range s.apps {
		socks[i] = &sock{app: a, capacity: capacity, slots: slots,
			overhead: s.Costs.SkbOverhead, gauge: s.newGauge(gauge, i, capacity)}
	}
	return socks
}

// charge is what a packet of caplen bytes takes from the capacity.
func (sk *sock) charge(caplen int) int {
	if sk.slots {
		return 1
	}
	return caplen + sk.overhead
}

func resetSocks(socks []*sock) {
	for _, sk := range socks {
		sk.queue = sk.queue[:0]
		sk.frames = sk.frames[:0]
		sk.used, sk.sinceWake, sk.Enqueued = 0, 0, 0
	}
}

func socksPending(socks []*sock) bool {
	for _, sk := range socks {
		if len(sk.queue) > 0 {
			return true
		}
	}
	return false
}

func sockRemnants(socks []*sock) [][]kpkt {
	perApp := make([][]kpkt, len(socks))
	for i, sk := range socks {
		perApp[i] = sk.queue
	}
	return perApp
}

// popFront takes the first n elements off the queue q into a new slice.
func popFront[T any](q *[]T, n int) []T {
	out := make([]T, n)
	copy(out, (*q)[:n])
	copy(*q, (*q)[n:])
	*q = (*q)[:len(*q)-n]
	return out
}

// delivery is one (socket, packet) pair accepted by a filter.
type delivery struct {
	sk *sock
	p  kpkt
}

// kernelPass is the hand-off of one batch into the sockets, shared by the
// Linux softirq, the NAPI pass and the poll-mode burst. The batch is in
// flight until the pass has run. The pass costs perPktNS per packet and,
// per socket, one filter run; an accepted packet adds enqNS, a wakeup if
// the reader sleeps, and with copyIn its bytes copied into a shared ring.
// When the pass completes, the filter rejections are booked, each accepted
// packet joins its socket unless the socket is full (a rcvbuf drop), idle
// readers start, and next runs.
func (s *System) kernelPass(cpu *sim.CPU, name string, batch []kpkt, inflight *[]kpkt,
	socks []*sock, perPktNS, enqNS float64, copyIn bool, next func()) {
	*inflight = batch
	var fixed, mem float64
	var delivers []delivery
	rejects := 0
	var rejectBytes uint64
	for _, p := range batch {
		fixed += perPktNS
		for _, sk := range socks {
			caplen, fcost := s.runFilter(p.data)
			fixed += fcost
			if caplen == 0 {
				rejects++
				rejectBytes += uint64(len(p.data))
				continue
			}
			fixed += enqNS
			if sk.app.state == stIdle {
				fixed += s.Costs.WakeupNS
			}
			if copyIn {
				mem += float64(caplen)
			}
			delivers = append(delivers, delivery{sk, kpkt{data: p.data, caplen: caplen, arrival: p.arrival}})
		}
	}
	cpu.Submit(&sim.Task{
		Name:         name,
		Prio:         sim.PrioSoftIRQ,
		FixedNS:      s.kfixed(fixed),
		MemBytes:     mem,
		MemNsPerByte: s.kmemNs(),
		OnDone: func() {
			// The pass has run: the batch packets are now either rejected,
			// dropped at a socket, or queued — no longer in flight.
			*inflight = nil
			s.ledger.RecordN(CauseFilter, rejects, rejectBytes, s.Sim.Now()-s.runStart)
			for _, dv := range delivers {
				sk := dv.sk
				charge := sk.charge(dv.p.caplen)
				if sk.used+charge > sk.capacity {
					s.recordDrop(CauseRcvbuf, dv.p.caplen)
					sk.gauge.overflow()
					continue
				}
				sk.queue = append(sk.queue, dv.p)
				sk.used += charge
				sk.gauge.observe(sk.used)
				sk.Enqueued++
				if sk.app.state == stIdle {
					s.stack.appStart(sk.app)
				}
			}
			next()
		},
	})
}
