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
// All three implement the same `stack` seam as the legacy stacks, so
// applications, policies, chaos, the journal and the monitor compose
// unchanged. Per-application overflows are booked under CauseRcvbuf
// (whatever the ring flavor, it is the application's receive buffer), so
// the conservation cross-check against Stats.AppDrops holds for every
// stack generation.

// msock is one modern per-application receive queue: the PF_PACKET
// socket, poll-mode app ring, or XSK ring feeding application a.
type msock struct {
	app   *App
	queue []kpkt
	bytes int // rssStack only: rcvbuf byte accounting
	// frames parallels queue for the zero-copy stack: the UMEM frame
	// backing each queued descriptor.
	frames    []*xframe
	sinceWake int // xdp: packets enqueued since the last wakeup
	gauge     *Gauge
	Drops     uint64
	Enqueued  uint64
}

// mdelivery is one (socket, packet) pair accepted by a filter.
type mdelivery struct {
	sk *msock
	p  kpkt
}

// ringCPU maps RSS ring r onto its servicing CPU.
func (s *System) ringCPU(r int) *sim.CPU {
	return s.Machine.CPUs[r%len(s.Machine.CPUs)]
}

// ---------------------------------------------------------------------------
// RSS + NAPI

type rssStack struct {
	sys      *System
	napiOn   []bool   // per ring: IRQ taken or polled passes scheduled
	inflight [][]kpkt // per ring: the batch inside a scheduled pass
	socks    []*msock
}

func newRSSStack(s *System, nrings int) *rssStack {
	st := &rssStack{
		sys:      s,
		napiOn:   make([]bool, nrings),
		inflight: make([][]kpkt, nrings),
	}
	for i, a := range s.apps {
		st.socks = append(st.socks, &msock{app: a, gauge: s.newGauge("rcvbuf", i, s.BufferBytes)})
	}
	return st
}

func (st *rssStack) reset() {
	for i := range st.napiOn {
		st.napiOn[i] = false
		st.inflight[i] = nil
	}
	resetSocks(st.socks)
}

func resetSocks(socks []*msock) {
	for _, sk := range socks {
		sk.queue = sk.queue[:0]
		sk.frames = sk.frames[:0]
		sk.bytes = 0
		sk.sinceWake = 0
		sk.Drops, sk.Enqueued = 0, 0
	}
}

// ringKick: the NIC raised the IRQ for ring r. The handler only acks and
// schedules NAPI; all per-packet work happens in the polled passes.
func (st *rssStack) ringKick(r int) {
	if st.napiOn[r] {
		return // NAPI already polling this ring: no further interrupts
	}
	st.napiOn[r] = true
	st.sys.ringCPU(r).Submit(&sim.Task{
		Name:    "rx-irq",
		Prio:    sim.PrioHardIRQ,
		FixedNS: st.sys.kfixed(st.sys.Costs.IRQEntryNS),
		OnDone:  func() { st.servicePass(r) },
	})
}

// servicePass drains up to NapiBudget packets from ring r in one softirq
// pass on the ring's CPU, delivering into the per-socket buffers.
func (st *rssStack) servicePass(r int) {
	c := &st.sys.Costs
	batch := st.sys.rss.popBurst(r, c.NapiBudget)
	if len(batch) == 0 {
		st.napiOn[r] = false
		return
	}
	st.inflight[r] = batch

	var fixed float64
	var delivers []mdelivery
	rejects := 0
	var rejectBytes uint64
	for _, p := range batch {
		fixed += c.DriverRxNS + c.NapiPollNS
		for _, sk := range st.socks {
			caplen, fcost := st.sys.runFilter(p.data)
			fixed += fcost
			if caplen == 0 {
				rejects++
				rejectBytes += uint64(len(p.data))
				continue
			}
			fixed += c.SockEnqNS
			if sk.app.state == stIdle {
				fixed += c.WakeupNS
			}
			delivers = append(delivers, mdelivery{sk, kpkt{data: p.data, caplen: caplen, arrival: p.arrival}})
		}
	}
	st.sys.ringCPU(r).Submit(&sim.Task{
		Name:    "napi-poll",
		Prio:    sim.PrioSoftIRQ,
		FixedNS: st.sys.kfixed(fixed),
		OnDone: func() {
			st.inflight[r] = nil
			st.sys.ledger.RecordN(CauseFilter, rejects, rejectBytes,
				st.sys.Sim.Now()-st.sys.runStart)
			for _, dv := range delivers {
				overhead := dv.p.caplen + st.sys.Costs.SkbOverhead
				if dv.sk.bytes+overhead > st.sys.BufferBytes {
					dv.sk.Drops++
					st.sys.recordDrop(CauseRcvbuf, dv.p.caplen)
					dv.sk.gauge.overflow()
					continue
				}
				dv.sk.queue = append(dv.sk.queue, dv.p)
				dv.sk.bytes += overhead
				dv.sk.gauge.observe(dv.sk.bytes)
				dv.sk.Enqueued++
				if dv.sk.app.state == stIdle {
					st.appStart(dv.sk.app)
				}
			}
			st.servicePass(r)
		},
	})
}

// appStart: the classic per-packet recvfrom read loop (RSS spreads the
// kernel side across cores, but the application still pays a syscall and
// a copy per packet).
func (st *rssStack) appStart(a *App) {
	if a.state == stRunning || a.state == stBlockedDisk ||
		a.state == stBlockedPipe || a.state == stBlockedWorkers {
		return
	}
	sk := st.socks[a.idx]
	if len(sk.queue) == 0 {
		a.state = stIdle
		return
	}
	if a.blockedOnBackpressure() {
		return
	}
	a.state = stRunning

	c := &st.sys.Costs
	n := len(sk.queue)
	if n > c.AppBatch {
		n = c.AppBatch
	}
	batch := make([]kpkt, n)
	copy(batch, sk.queue[:n])
	copy(sk.queue, sk.queue[n:])
	sk.queue = sk.queue[:len(sk.queue)-n]

	occ := a.occupancy(float64(sk.bytes) / float64(st.sys.BufferBytes))

	var fixed, mem float64
	for _, p := range batch {
		sk.bytes -= p.caplen + c.SkbOverhead
		fixed += st.sys.ufixed(c.RecvSyscallNS)
		mem += float64(p.caplen)
		a.inflightBytes += uint64(p.caplen)
	}
	a.inflightPkts = n
	adm := a.admitBatch(batch, occ)
	fixed += adm.policyNS
	loadFixed, loadMem, finish := a.batchLoad(adm.caplens, 1.0)
	fixed += loadFixed
	mem += loadMem
	est := fixed + mem*st.sys.umemNs()
	a.submitWork(&sim.Task{
		Name:         "recv",
		Prio:         sim.PrioUser,
		FixedNS:      fixed,
		MemBytes:     mem,
		MemNsPerByte: st.sys.umemNs(),
		OnDone: func() {
			a.finishRead(adm)
			finish()
			a.state = stIdle
			st.appStart(a)
		},
	}, est)
}

func (st *rssStack) pending() bool {
	for r := range st.inflight {
		if len(st.inflight[r]) > 0 || st.napiOn[r] {
			return true
		}
	}
	return socksPending(st.socks)
}

func socksPending(socks []*msock) bool {
	for _, sk := range socks {
		if len(sk.queue) > 0 {
			return true
		}
	}
	return false
}

func (st *rssStack) dropStats() ([]uint64, uint64) { return sockDrops(st.socks), 0 }

func sockDrops(socks []*msock) []uint64 {
	per := make([]uint64, len(socks))
	for i, sk := range socks {
		per[i] = sk.Drops
	}
	return per
}

func (st *rssStack) remnants() (shared []kpkt, perApp [][]kpkt) {
	for r := range st.inflight {
		shared = append(shared, st.inflight[r]...)
	}
	return shared, sockRemnants(st.socks)
}

func sockRemnants(socks []*msock) [][]kpkt {
	perApp := make([][]kpkt, len(socks))
	for i, sk := range socks {
		perApp[i] = sk.queue
	}
	return perApp
}

// The legacy NIC seam is never exercised by the modern stacks (the rssNIC
// drives them through ringKick/popBurst instead).
func (st *rssStack) irqCost([]byte) (float64, float64, any) { return 0, 0, nil }
func (st *rssStack) irqDone([]byte, any)                    {}

// ---------------------------------------------------------------------------
// Poll mode (DPDK-style PMD)

type pollStack struct {
	sys      *System
	pmds     []pmd
	inflight [][]kpkt
	socks    []*msock
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
	st := &pollStack{
		sys:      s,
		pmds:     make([]pmd, nrings),
		inflight: make([][]kpkt, nrings),
	}
	for r := range st.pmds {
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
			OnDone:  func() { st.poll(r) },
		}
		p.grain = func() { st.grain(r) }
	}
	for i, a := range s.apps {
		st.socks = append(st.socks, &msock{app: a, gauge: s.newGauge("app-ring", i, s.Costs.AppRingSlots)})
	}
	return st
}

func (st *pollStack) reset() {
	for i := range st.inflight {
		st.inflight[i] = nil
		st.pmds[i].tailFrom, st.pmds[i].tailGrain = 0, 0
	}
	resetSocks(st.socks)
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
	batch := st.sys.rss.popBurst(r, c.PollBurst)
	if len(batch) == 0 {
		p := &st.pmds[r]
		p.cpu.Spin(&p.spin)
		st.arm(r)
		return
	}
	st.inflight[r] = batch

	var fixed float64
	var delivers []mdelivery
	rejects := 0
	var rejectBytes uint64
	for _, p := range batch {
		fixed += c.PollPerPktNS
		for _, sk := range st.socks {
			caplen, fcost := st.sys.runFilter(p.data)
			fixed += fcost
			if caplen == 0 {
				rejects++
				rejectBytes += uint64(len(p.data))
				continue
			}
			fixed += c.RingInsertNS
			if sk.app.state == stIdle {
				fixed += c.WakeupNS
			}
			delivers = append(delivers, mdelivery{sk, kpkt{data: p.data, caplen: caplen, arrival: p.arrival}})
		}
	}
	st.pmds[r].cpu.Submit(&sim.Task{
		Name:    "pmd-burst",
		Prio:    sim.PrioSoftIRQ,
		FixedNS: st.sys.kfixed(fixed),
		OnDone: func() {
			st.inflight[r] = nil
			st.sys.ledger.RecordN(CauseFilter, rejects, rejectBytes,
				st.sys.Sim.Now()-st.sys.runStart)
			for _, dv := range delivers {
				if len(dv.sk.queue) >= st.sys.Costs.AppRingSlots {
					dv.sk.Drops++
					st.sys.recordDrop(CauseRcvbuf, dv.p.caplen)
					dv.sk.gauge.overflow()
					continue
				}
				dv.sk.queue = append(dv.sk.queue, dv.p)
				dv.sk.gauge.observe(len(dv.sk.queue))
				dv.sk.Enqueued++
				if dv.sk.app.state == stIdle {
					st.appStart(dv.sk.app)
				}
			}
			st.poll(r)
		},
	})
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
	if st.sys.genDone && st.sys.rss.dmaPkts == 0 {
		p.tailFrom, p.tailGrain = now, grain
		return
	}
	p.next = st.sys.Sim.At(now+grain, p.grain)
}

// appStart: the reader maps the ring frames in place — no syscall, no
// copy; only the cheap per-frame hand-off plus the configured load.
func (st *pollStack) appStart(a *App) {
	if a.state == stRunning || a.state == stBlockedDisk ||
		a.state == stBlockedPipe || a.state == stBlockedWorkers {
		return
	}
	sk := st.socks[a.idx]
	if len(sk.queue) == 0 {
		a.state = stIdle
		return
	}
	if a.blockedOnBackpressure() {
		return
	}
	a.state = stRunning

	c := &st.sys.Costs
	n := len(sk.queue)
	if n > c.AppBatch {
		n = c.AppBatch
	}
	batch := make([]kpkt, n)
	copy(batch, sk.queue[:n])
	copy(sk.queue, sk.queue[n:])
	sk.queue = sk.queue[:len(sk.queue)-n]

	occ := a.occupancy(float64(len(sk.queue)+n) / float64(c.AppRingSlots))

	var fixed float64
	for _, p := range batch {
		fixed += st.sys.ufixed(c.MmapPerPktNS)
		a.inflightBytes += uint64(p.caplen)
	}
	a.inflightPkts = n
	adm := a.admitBatch(batch, occ)
	fixed += adm.policyNS
	loadFixed, loadMem, finish := a.batchLoad(adm.caplens, 1.0)
	fixed += loadFixed
	est := fixed + loadMem*st.sys.umemNs()
	a.submitWork(&sim.Task{
		Name:         "ring-read",
		Prio:         sim.PrioUser,
		FixedNS:      fixed,
		MemBytes:     loadMem,
		MemNsPerByte: st.sys.umemNs(),
		OnDone: func() {
			a.finishRead(adm)
			finish()
			a.state = stIdle
			st.appStart(a)
		},
	}, est)
}

func (st *pollStack) pending() bool {
	for r := range st.inflight {
		if len(st.inflight[r]) > 0 {
			return true
		}
	}
	return socksPending(st.socks)
}

func (st *pollStack) dropStats() ([]uint64, uint64) { return sockDrops(st.socks), 0 }

func (st *pollStack) remnants() (shared []kpkt, perApp [][]kpkt) {
	for r := range st.inflight {
		shared = append(shared, st.inflight[r]...)
	}
	return shared, sockRemnants(st.socks)
}

func (st *pollStack) irqCost([]byte) (float64, float64, any) { return 0, 0, nil }
func (st *pollStack) irqDone([]byte, any)                    {}

// ---------------------------------------------------------------------------
// AF_XDP-style zero copy

// xframe is one UMEM frame shared by every socket that accepted the
// packet; it returns to the free pool when the last reference completes.
type xframe struct{ refs int }

type xdpStack struct {
	sys      *System
	napiOn   []bool
	inflight [][]kpkt
	socks    []*msock
	umemFree int
	gUmem    *Gauge
}

func newXDPStack(s *System, nrings int) *xdpStack {
	st := &xdpStack{
		sys:      s,
		napiOn:   make([]bool, nrings),
		inflight: make([][]kpkt, nrings),
		umemFree: s.Costs.UmemFrames,
	}
	st.gUmem = s.newGauge("umem", -1, s.Costs.UmemFrames)
	for i, a := range s.apps {
		st.socks = append(st.socks, &msock{app: a, gauge: s.newGauge("xsk-ring", i, s.Costs.AppRingSlots)})
	}
	return st
}

func (st *xdpStack) reset() {
	for i := range st.napiOn {
		st.napiOn[i] = false
		st.inflight[i] = nil
	}
	st.umemFree = st.sys.Costs.UmemFrames
	resetSocks(st.socks)
}

func (st *xdpStack) ringKick(r int) {
	if st.napiOn[r] {
		return
	}
	st.napiOn[r] = true
	st.sys.ringCPU(r).Submit(&sim.Task{
		Name:    "rx-irq",
		Prio:    sim.PrioHardIRQ,
		FixedNS: st.sys.kfixed(st.sys.Costs.IRQEntryNS),
		OnDone:  func() { st.xdpPass(r) },
	})
}

// release returns one socket's reference on a frame, freeing it to the
// UMEM pool when the last holder is done (the completion ring).
func (st *xdpStack) release(f *xframe) {
	f.refs--
	if f.refs == 0 {
		st.umemFree++
	}
}

// xdpPass drains up to NapiBudget packets from ring r: each packet needs
// a UMEM frame (fill-ring exhaustion is the umem-fill drop, before any
// socket sees the packet), is filtered per socket, and lands by reference
// in the accepting sockets' XSK rings. Wakeups are batched: an idle
// application is woken only once WakeupBatch packets have accumulated, or
// when the driver goes idle (the need_wakeup flush, which also guarantees
// tails drain and the run terminates).
func (st *xdpStack) xdpPass(r int) {
	c := &st.sys.Costs
	batch := st.sys.rss.popBurst(r, c.NapiBudget)
	if len(batch) == 0 {
		st.napiOn[r] = false
		return
	}
	st.inflight[r] = batch

	var fixed float64
	for _, p := range batch {
		fixed += c.DriverRxNS + c.XdpRxNS
		for range st.socks {
			_, fcost := st.sys.runFilter(p.data)
			fixed += fcost
			fixed += c.RingInsertNS
		}
	}
	st.sys.ringCPU(r).Submit(&sim.Task{
		Name:    "xdp-rx",
		Prio:    sim.PrioSoftIRQ,
		FixedNS: st.sys.kfixed(fixed),
		OnDone: func() {
			st.inflight[r] = nil
			now := st.sys.Sim.Now() - st.sys.runStart
			rejects := 0
			var rejectBytes uint64
			for _, p := range batch {
				if st.umemFree == 0 {
					// No frame for the DMA'd packet: dropped before the
					// per-socket fan-out, shared by every application.
					st.sys.ledger.Record(CauseUmemFill, len(p.data), now)
					st.gUmem.overflow()
					continue
				}
				st.umemFree--
				st.gUmem.observe(st.sys.Costs.UmemFrames - st.umemFree)
				f := &xframe{}
				for _, sk := range st.socks {
					caplen, _ := st.sys.runFilter(p.data)
					if caplen == 0 {
						rejects++
						rejectBytes += uint64(len(p.data))
						continue
					}
					if len(sk.queue) >= st.sys.Costs.AppRingSlots {
						sk.Drops++
						st.sys.recordDrop(CauseRcvbuf, caplen)
						sk.gauge.overflow()
						continue
					}
					f.refs++
					sk.queue = append(sk.queue, kpkt{data: p.data, caplen: caplen, arrival: p.arrival})
					sk.frames = append(sk.frames, f)
					sk.gauge.observe(len(sk.queue))
					sk.Enqueued++
					sk.sinceWake++
				}
				if f.refs == 0 {
					// Every socket rejected or overflowed: the frame goes
					// straight back to the pool.
					st.umemFree++
				}
			}
			st.sys.ledger.RecordN(CauseFilter, rejects, rejectBytes, now)
			flush := st.sys.rss.depth(r) == 0
			for _, sk := range st.socks {
				if len(sk.queue) == 0 || sk.app.state != stIdle {
					continue
				}
				if sk.sinceWake >= st.sys.Costs.WakeupBatch || flush {
					sk.sinceWake = 0
					st.appStart(sk.app)
				}
			}
			st.xdpPass(r)
		},
	})
}

// appStart: one batched wakeup syscall, then per-frame descriptor
// handling — no copy; frames return to the UMEM pool when the read
// completes.
func (st *xdpStack) appStart(a *App) {
	if a.state == stRunning || a.state == stBlockedDisk ||
		a.state == stBlockedPipe || a.state == stBlockedWorkers {
		return
	}
	sk := st.socks[a.idx]
	if len(sk.queue) == 0 {
		a.state = stIdle
		return
	}
	if a.blockedOnBackpressure() {
		return
	}
	a.state = stRunning

	c := &st.sys.Costs
	n := len(sk.queue)
	if n > c.AppBatch {
		n = c.AppBatch
	}
	batch := make([]kpkt, n)
	copy(batch, sk.queue[:n])
	copy(sk.queue, sk.queue[n:])
	sk.queue = sk.queue[:len(sk.queue)-n]
	frames := make([]*xframe, n)
	copy(frames, sk.frames[:n])
	copy(sk.frames, sk.frames[n:])
	sk.frames = sk.frames[:len(sk.frames)-n]

	occ := a.occupancy(float64(len(sk.queue)+n) / float64(c.AppRingSlots))

	fixed := st.sys.ufixed(c.RecvSyscallNS) // one poll()/recvmsg per wakeup
	for _, p := range batch {
		fixed += st.sys.ufixed(c.XdpPerPktNS)
		a.inflightBytes += uint64(p.caplen)
	}
	a.inflightPkts = n
	adm := a.admitBatch(batch, occ)
	fixed += adm.policyNS
	loadFixed, loadMem, finish := a.batchLoad(adm.caplens, 1.0)
	fixed += loadFixed
	est := fixed + loadMem*st.sys.umemNs()
	a.submitWork(&sim.Task{
		Name:         "xsk-read",
		Prio:         sim.PrioUser,
		FixedNS:      fixed,
		MemBytes:     loadMem,
		MemNsPerByte: st.sys.umemNs(),
		OnDone: func() {
			a.finishRead(adm)
			for _, f := range frames {
				st.release(f)
			}
			finish()
			a.state = stIdle
			st.appStart(a)
		},
	}, est)
}

func (st *xdpStack) pending() bool {
	for r := range st.inflight {
		if len(st.inflight[r]) > 0 || st.napiOn[r] {
			return true
		}
	}
	return socksPending(st.socks)
}

func (st *xdpStack) dropStats() ([]uint64, uint64) { return sockDrops(st.socks), 0 }

func (st *xdpStack) remnants() (shared []kpkt, perApp [][]kpkt) {
	for r := range st.inflight {
		shared = append(shared, st.inflight[r]...)
	}
	return shared, sockRemnants(st.socks)
}

func (st *xdpStack) irqCost([]byte) (float64, float64, any) { return 0, 0, nil }
func (st *xdpStack) irqDone([]byte, any)                    {}
