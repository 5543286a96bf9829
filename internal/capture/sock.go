package capture

import "repro/internal/sim"

// This file holds the receive path the stacks share (§2.1–2.2): the
// per-application socket, the kernel pass that filters a batch into the
// sockets, and the queues packets wait in. The stacks differ only in
// where a pass runs, what it costs, and how the reader copies.
//
// Like the stacks it models, the path allocates nothing per packet. A
// site with at most one task in flight (a hardirq, a softirq or ring
// pass, an application read, a timer) owns its sim.Task and binds the
// completion once; batches pop into buffers their site owns.

// sock is one application's receive queue in the kernel: the PF_PACKET
// socket of the Linux and RSS stacks, the poll-mode app ring or the XSK
// ring. Its capacity is a byte budget (the rcvbuf, where a packet takes
// its capture length plus SkbOverhead) or a slot count (the two rings,
// where a packet takes one slot).
type sock struct {
	app      *App
	queue    fifo[kpkt]
	frames   fifo[*xframe] // zero copy: the UMEM frame behind each queued packet
	capacity int           // bytes or slots
	used     int           // bytes or slots the queue takes
	slots    bool          // capacity counts packets, not bytes
	overhead int           // per-packet bytes beyond the capture length
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
		sk.queue.reset()
		sk.frames.reset()
		sk.used, sk.sinceWake, sk.Enqueued = 0, 0, 0
	}
}

func socksPending(socks []*sock) bool {
	for _, sk := range socks {
		if sk.queue.len() > 0 {
			return true
		}
	}
	return false
}

func sockRemnants(socks []*sock) [][]kpkt {
	perApp := make([][]kpkt, len(socks))
	for i, sk := range socks {
		perApp[i] = sk.queue.items()
	}
	return perApp
}

// fifo is a head-indexed queue. A pop advances the head instead of moving
// what is left, and a push moves the live part to the front only when the
// backing array is full and at least half of it is popped space, so both
// are amortized O(1) and the array stays within twice the deepest
// backlog. Popped slots keep stale values until they are overwritten.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// items returns the queued elements, oldest first, until the next push or
// pop.
func (q *fifo[T]) items() []T { return q.buf[q.head:] }

func (q *fifo[T]) reset() { q.buf, q.head = q.buf[:0], 0 }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf) {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// pop removes the oldest element.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.reset()
	}
	return v
}

// popInto moves the n oldest elements into dst, which it empties first,
// and returns it: a batch lands in a buffer its consumer owns.
func (q *fifo[T]) popInto(dst []T, n int) []T {
	dst = append(dst[:0], q.buf[q.head:q.head+n]...)
	q.head += n
	if q.head == len(q.buf) {
		q.reset()
	}
	return dst
}

// delivery is one (socket, packet) pair accepted by a filter.
type delivery struct {
	sk *sock
	p  kpkt
}

// kernelPass is the hand-off of one batch into the sockets, shared by the
// Linux softirq, the NAPI pass and the poll-mode burst. Each site that
// runs passes (the Linux softirq, each RSS ring) owns one, with at most
// one pass in flight: its task, whose completion is bound once, and the
// buffers its batch and deliveries land in. The site pops the batch into
// batch, which stays in flight until the pass has run, and calls run.
type kernelPass struct {
	sys   *System
	socks []*sock
	next  func() // what follows a pass, bound once by the site
	task  sim.Task
	batch []kpkt

	delivers    []delivery
	rejects     int
	rejectBytes uint64
}

// init binds the pass to its site: its task is named name, and next runs
// when a pass has run.
func (p *kernelPass) init(s *System, name string, socks []*sock, next func()) {
	p.sys, p.socks, p.next = s, socks, next
	p.task = sim.Task{Name: name, Prio: sim.PrioSoftIRQ, OnDone: p.done}
}

// run submits the pass over the batch on cpu. It costs perPktNS per
// packet and, per socket, one filter run; an accepted packet adds enqNS,
// a wakeup if the reader sleeps, and with copyIn its bytes copied into a
// shared ring.
func (p *kernelPass) run(cpu *sim.CPU, perPktNS, enqNS float64, copyIn bool) {
	s := p.sys
	var fixed, mem float64
	p.delivers = p.delivers[:0]
	p.rejects, p.rejectBytes = 0, 0
	for _, pk := range p.batch {
		fixed += perPktNS
		for _, sk := range p.socks {
			caplen, fcost := s.runFilter(pk.data)
			fixed += fcost
			if caplen == 0 {
				p.rejects++
				p.rejectBytes += uint64(len(pk.data))
				continue
			}
			fixed += enqNS
			if sk.app.state == stIdle {
				fixed += s.Costs.WakeupNS
			}
			if copyIn {
				mem += float64(caplen)
			}
			p.delivers = append(p.delivers, delivery{sk, kpkt{data: pk.data, caplen: caplen, arrival: pk.arrival}})
		}
	}
	p.task.FixedNS, p.task.MemBytes, p.task.MemNsPerByte = s.kfixed(fixed), mem, s.kmemNs()
	cpu.Submit(&p.task)
}

// done completes a pass: the filter rejections are booked, each accepted
// packet joins its socket unless the socket is full (a rcvbuf drop), idle
// readers start, and next runs.
func (p *kernelPass) done() {
	s := p.sys
	// The pass has run: the batch packets are now either rejected,
	// dropped at a socket, or queued — no longer in flight.
	p.batch = p.batch[:0]
	s.ledger.RecordN(CauseFilter, p.rejects, p.rejectBytes, s.Sim.Now()-s.runStart)
	for _, dv := range p.delivers {
		sk := dv.sk
		charge := sk.charge(dv.p.caplen)
		if sk.used+charge > sk.capacity {
			s.recordDrop(CauseRcvbuf, dv.p.caplen)
			sk.gauge.overflow()
			continue
		}
		sk.queue.push(dv.p)
		sk.used += charge
		sk.gauge.observe(sk.used)
		sk.Enqueued++
		if sk.app.state == stIdle {
			s.stack.appStart(sk.app)
		}
	}
	p.next()
}
