package capture

import "repro/internal/sim"

// This file implements the three post-2005 receive disciplines on top of
// the RSS multi-queue NIC (nic_rss.go):
//
//   - rssStack: RSS + NAPI. Each ring takes a hardware interrupt, then is
//     drained in polled softirq passes of NapiBudget packets on its own
//     CPU; delivery into per-socket receive buffers and a per-packet copy
//     to user space — the multi-queue evolution of the stock Linux path.
//   - pollStack: a DPDK-style poll-mode driver. One busy-spinning core per
//     ring, no interrupts at all, burst polls of PollBurst packets, and a
//     zero-copy hand-off into per-application rings.
//   - xdpStack: AF_XDP-style zero copy. IRQ-driven XDP passes redirect
//     frames from a shared UMEM pool into per-socket rings; applications
//     are woken once per WakeupBatch packets and read descriptors without
//     copying; frames return to the pool via the completion ring when the
//     read finishes.
//
// All three implement the same `stack` seam as the legacy stacks and
// hand packets to the same sockets (sock.go), so applications, policies,
// chaos, the journal and the monitor compose unchanged. Per-application
// overflows are booked under CauseRcvbuf whatever the ring flavor: it is
// the application's receive buffer.

// ringCPU maps RSS ring r onto its servicing CPU.
func (s *System) ringCPU(r int) *sim.CPU {
	return s.Machine.CPUs[r%len(s.Machine.CPUs)]
}

// ringSet is the per-ring service state the three modern stacks share,
// and the per-application sockets they deliver into.
type ringSet struct {
	sys   *System
	rings []ringState
	socks []*sock
}

// ringState is one RSS ring's service state. At most one interrupt or
// pass is in flight per ring, so the ring owns both tasks.
type ringState struct {
	napiOn  bool       // IRQ taken or polled passes scheduled
	service func()     // the ring's service pass, bound once by the stack
	irq     sim.Task   // the ring's interrupt; its completion is service
	pass    kernelPass // the ring's pass; its batch is in flight
}

func newRingSet(s *System, n int, socks []*sock) ringSet {
	return ringSet{sys: s, rings: make([]ringState, n), socks: socks}
}

// bind makes service ring r's service pass: the one its interrupt and
// every pass lead to. name names the pass.
func (q *ringSet) bind(r int, name string, service func()) {
	ring := &q.rings[r]
	ring.service = service
	ring.irq = sim.Task{Name: "rx-irq", Prio: sim.PrioHardIRQ, OnDone: service}
	ring.pass.init(q.sys, name, q.socks, service)
}

// ringKick: the NIC raised the IRQ for ring r. The handler only acks and
// schedules the ring's service; all per-packet work happens in the passes.
func (q *ringSet) ringKick(r int) {
	ring := &q.rings[r]
	if ring.napiOn {
		return // already polling this ring: no further interrupts
	}
	ring.napiOn = true
	ring.irq.FixedNS = q.sys.kfixed(q.sys.Costs.IRQEntryNS)
	q.sys.ringCPU(r).Submit(&ring.irq)
}

func (q *ringSet) reset() {
	for r := range q.rings {
		ring := &q.rings[r]
		ring.napiOn, ring.pass.batch = false, ring.pass.batch[:0]
	}
	resetSocks(q.socks)
}

func (q *ringSet) pending() bool {
	for r := range q.rings {
		if ring := &q.rings[r]; len(ring.pass.batch) > 0 || ring.napiOn {
			return true
		}
	}
	return socksPending(q.socks)
}

func (q *ringSet) remnants() (shared []kpkt, perApp [][]kpkt) {
	for r := range q.rings {
		shared = append(shared, q.rings[r].pass.batch...)
	}
	return shared, sockRemnants(q.socks)
}

// ---------------------------------------------------------------------------
// RSS + NAPI

type rssStack struct{ ringSet }

func newRSSStack(s *System, nrings int) *rssStack {
	st := &rssStack{newRingSet(s, nrings, s.newSocks("rcvbuf", s.BufferBytes, false))}
	for r := range st.rings {
		st.bind(r, "napi-poll", func() { st.servicePass(r) })
	}
	return st
}

// servicePass drains up to NapiBudget packets from ring r in one softirq
// pass on the ring's CPU, delivering into the per-socket buffers.
func (st *rssStack) servicePass(r int) {
	c := &st.sys.Costs
	p := &st.rings[r].pass
	p.batch = st.sys.rss.popBurst(r, c.NapiBudget, p.batch)
	if len(p.batch) == 0 {
		st.rings[r].napiOn = false
		return
	}
	p.run(st.sys.ringCPU(r), c.DriverRxNS+c.NapiPollNS, c.SockEnqNS, false)
}

// appStart: the classic per-packet recvfrom read loop (RSS spreads the
// kernel side across cores, but the application still pays a syscall and
// a copy per packet).
func (st *rssStack) appStart(a *App) {
	a.readSock(st.socks[a.idx], "recv", 0, st.sys.ufixed(st.sys.Costs.RecvSyscallNS), true)
}

// ---------------------------------------------------------------------------
// Poll mode (DPDK-style PMD)

type pollStack struct {
	ringSet
	pmds []pmd
}

// pmd is one poll-mode driver loop: ring r's dedicated core and its idle
// spin. An idle core holds the spin as an open-ended task (sim.CPU.Spin),
// so its busy time accrues without events. While a packet can still land
// on the ring, one grain event per PollIdleNS stands in for the empty poll
// that would notice it, firing at the instant and in the order a loop of
// PollIdleNS tasks would poll, so a landing is picked up when that loop
// would pick it up. Once nothing can land, the grains stop: landings, not
// the grain, bound an idle core's event count.
type pmd struct {
	cpu   *sim.CPU
	spin  sim.Task     // the idle spin; its OnDone polls the ring
	grain func()       // the grain event, bound once so arming allocates nothing
	next  sim.EventRef // the armed grain
	// Once the grains stop, tailFrom is the last grain boundary and
	// tailGrain the grain length there (0 while grains are armed).
	tailFrom, tailGrain sim.Time
}

func newPollStack(s *System, nrings int) *pollStack {
	st := &pollStack{ringSet: newRingSet(s, nrings, s.newSocks("app-ring", s.Costs.AppRingSlots, true)),
		pmds: make([]pmd, nrings)}
	for r := range st.pmds {
		st.bind(r, "pmd-burst", func() { st.poll(r) })
		p := &st.pmds[r]
		p.cpu = s.ringCPU(r)
		// The PMD cores are dedicated: user work must never be placed on a
		// busy-spinning CPU (it would starve behind the spin forever).
		s.Machine.Reserve(p.cpu.ID)
		// PollIdleNS is the spin grain, a simulation artifact: it is not
		// scaled by kfixed, and the busy accounting is exact either way.
		p.spin = sim.Task{
			Name:    "pmd-spin",
			Prio:    sim.PrioSoftIRQ,
			FixedNS: s.Costs.PollIdleNS,
			OnDone:  st.rings[r].service,
		}
		p.grain = func() { st.grain(r) }
	}
	return st
}

func (st *pollStack) reset() {
	st.ringSet.reset()
	for r := range st.pmds {
		st.pmds[r].tailFrom, st.pmds[r].tailGrain = 0, 0
	}
}

// start launches the PMD loops, one per ring on its own core. Called by
// System.run after s.running is set.
func (st *pollStack) start() {
	for r := range st.pmds {
		st.poll(r)
	}
}

// stop ends the spins once the run is over. It first moves the clock to
// where a loop of PollIdleNS tasks would have left it, the last grain
// boundary at or before limit (the last window the run advanced to), so a
// truncated run books its remnants at that loop's instant. This assumes a
// stopped core's grain length holds, which only a hyperthread sibling
// changing state during a truncated tail would break. Each spin then ends,
// and the work queued behind it (housekeeping, a starved reader) drains.
func (st *pollStack) stop(limit sim.Time) {
	last := st.sys.Sim.Now()
	for r := range st.pmds {
		p := &st.pmds[r]
		p.next.Cancel()
		if p.tailGrain > 0 {
			if g := p.tailFrom + (limit-p.tailFrom)/p.tailGrain*p.tailGrain; g > last {
				last = g
			}
		}
	}
	st.sys.Sim.AdvanceTo(last)
	for r := range st.pmds {
		if p := &st.pmds[r]; p.cpu.Running() == &p.spin {
			p.cpu.EndSpin() // its OnDone polls nothing: the run is over
		}
	}
}

// poll runs one PMD loop iteration on ring r's core: a non-empty poll
// processes up to PollBurst packets and hands them into the
// per-application rings without copying; an empty one parks the core in
// its spin (the core is 100% busy whether or not traffic flows — the
// defining cost trade of poll mode, visible in cpusage as a pegged
// softintr class).
func (st *pollStack) poll(r int) {
	if !st.sys.running {
		return // run over: the loop winds down
	}
	c := &st.sys.Costs
	pass := &st.rings[r].pass
	pass.batch = st.sys.rss.popBurst(r, c.PollBurst, pass.batch)
	if len(pass.batch) == 0 {
		p := &st.pmds[r]
		p.cpu.Spin(&p.spin)
		st.arm(r)
		return
	}
	pass.run(st.pmds[r].cpu, c.PollPerPktNS, c.RingInsertNS, false)
}

// grain is one spin-grain boundary on ring r, where the loop polls the
// ring again: a packet that landed ends the spin, whose OnDone polls it;
// otherwise the next grain is armed.
func (st *pollStack) grain(r int) {
	if st.sys.rss.depth(r) > 0 {
		st.pmds[r].cpu.EndSpin()
		return
	}
	st.arm(r)
}

// arm schedules ring r's next grain one PollIdleNS task from now, as long
// as the core would run it now (hyperthreading stretches it while the
// sibling is busy), while a packet can still land on the empty ring:
// generation running or DMA in flight. Otherwise the grains stop here.
func (st *pollStack) arm(r int) {
	p := &st.pmds[r]
	now, grain := st.sys.Sim.Now(), p.cpu.Cost(&p.spin)
	if st.sys.genDone && st.sys.rss.dma.len() == 0 {
		p.tailFrom, p.tailGrain = now, grain
		return
	}
	p.next = st.sys.Sim.At(now+grain, p.grain)
}

// appStart: the reader maps the ring frames in place — no syscall, no
// copy; only the cheap per-frame hand-off plus the configured load.
func (st *pollStack) appStart(a *App) {
	a.readSock(st.socks[a.idx], "ring-read", 0, st.sys.ufixed(st.sys.Costs.MmapPerPktNS), false)
}

// ---------------------------------------------------------------------------
// AF_XDP-style zero copy

// xframe is one UMEM frame shared by every socket that accepted the
// packet; it returns to its pool when the last reference completes.
type xframe struct {
	refs int
	pool *xdpStack
}

// release returns one socket's reference on the frame, freeing it to the
// UMEM pool when the last holder is done (the completion ring).
func (f *xframe) release() {
	f.refs--
	if f.refs == 0 {
		f.pool.free = append(f.pool.free, f)
	}
}

type xdpStack struct {
	ringSet
	umem  []xframe  // the UmemFrames frames, made with the System
	free  []*xframe // the fill ring: frames free for the driver
	gUmem *Gauge
}

func newXDPStack(s *System, nrings int) *xdpStack {
	st := &xdpStack{umem: make([]xframe, max(s.Costs.UmemFrames, 0))}
	st.free = make([]*xframe, 0, len(st.umem))
	for i := range st.umem {
		st.umem[i].pool = st
	}
	st.fill()
	st.gUmem = s.newGauge("umem", -1, s.Costs.UmemFrames)
	st.ringSet = newRingSet(s, nrings, s.newSocks("xsk-ring", s.Costs.AppRingSlots, true))
	for r := range st.rings {
		st.bind(r, "xdp-rx", func() { st.xdpPass(r) })
		// The XDP pass completes through its own delivery, not the
		// socket pass's.
		st.rings[r].pass.task.OnDone = func() { st.xdpDone(r) }
	}
	return st
}

// fill puts every UMEM frame on the fill ring.
func (st *xdpStack) fill() {
	st.free = st.free[:0]
	for i := range st.umem {
		st.umem[i].refs = 0
		st.free = append(st.free, &st.umem[i])
	}
}

func (st *xdpStack) reset() {
	st.ringSet.reset()
	st.fill()
}

// xdpPass drains up to NapiBudget packets from ring r: each packet needs
// a UMEM frame (fill-ring exhaustion is the umem-fill drop, before any
// socket sees the packet), is filtered per socket, and lands by reference
// in the accepting sockets' XSK rings. Wakeups are batched: an idle
// application is woken only once WakeupBatch packets have accumulated, or
// when the driver goes idle (the need_wakeup flush, which also guarantees
// tails drain and the run terminates). Unlike kernelPass, the pass pays
// the ring insert for every socket, and the pool is checked before the
// fan-out.
func (st *xdpStack) xdpPass(r int) {
	c := &st.sys.Costs
	ring := &st.rings[r]
	ring.pass.batch = st.sys.rss.popBurst(r, c.NapiBudget, ring.pass.batch)
	if len(ring.pass.batch) == 0 {
		ring.napiOn = false
		return
	}

	var fixed float64
	for _, p := range ring.pass.batch {
		fixed += c.DriverRxNS + c.XdpRxNS
		for range st.socks {
			_, fcost := st.sys.runFilter(p.data)
			fixed += fcost
			fixed += c.RingInsertNS
		}
	}
	ring.pass.task.FixedNS = st.sys.kfixed(fixed)
	st.sys.ringCPU(r).Submit(&ring.pass.task)
}

// xdpDone completes ring r's XDP pass: the batch lands in the XSK rings,
// idle readers are woken, and the next pass starts.
func (st *xdpStack) xdpDone(r int) {
	ring := &st.rings[r]
	batch := ring.pass.batch
	ring.pass.batch = batch[:0] // no longer in flight; read below until the next pass
	now := st.sys.Sim.Now() - st.sys.runStart
	rejects := 0
	var rejectBytes uint64
	for _, p := range batch {
		if len(st.free) == 0 {
			// No frame for the DMA'd packet: dropped before the
			// per-socket fan-out, shared by every application.
			st.sys.ledger.Record(CauseUmemFill, len(p.data), now)
			st.gUmem.overflow()
			continue
		}
		f := st.free[len(st.free)-1]
		st.free = st.free[:len(st.free)-1]
		st.gUmem.observe(len(st.umem) - len(st.free))
		for _, sk := range st.socks {
			caplen, _ := st.sys.runFilter(p.data)
			if caplen == 0 {
				rejects++
				rejectBytes += uint64(len(p.data))
				continue
			}
			if sk.used >= sk.capacity {
				st.sys.recordDrop(CauseRcvbuf, caplen)
				sk.gauge.overflow()
				continue
			}
			f.refs++
			sk.queue.push(kpkt{data: p.data, caplen: caplen, arrival: p.arrival})
			sk.frames.push(f)
			sk.used++
			sk.gauge.observe(sk.used)
			sk.Enqueued++
			sk.sinceWake++
		}
		if f.refs == 0 {
			// Every socket rejected or overflowed: the frame goes
			// straight back to the pool.
			st.free = append(st.free, f)
		}
	}
	st.sys.ledger.RecordN(CauseFilter, rejects, rejectBytes, now)
	flush := st.sys.rss.depth(r) == 0
	for _, sk := range st.socks {
		if sk.queue.len() == 0 || sk.app.state != stIdle {
			continue
		}
		if sk.sinceWake >= st.sys.Costs.WakeupBatch || flush {
			sk.sinceWake = 0
			st.appStart(sk.app)
		}
	}
	st.xdpPass(r)
}

// appStart: one batched wakeup syscall, then per-frame descriptor
// handling — no copy; frames return to the UMEM pool when the read
// completes.
func (st *xdpStack) appStart(a *App) {
	c := &st.sys.Costs
	a.readSock(st.socks[a.idx], "xsk-read", st.sys.ufixed(c.RecvSyscallNS), st.sys.ufixed(c.XdpPerPktNS), false)
}
