package capture

// linuxStack models the Linux 2.6 capturing stack (§2.1.2): the interrupt
// handler allocates an skb and appends a pointer to the per-CPU input
// queue; a NET_RX softirq later walks the queue and hands each packet to
// every PF_PACKET socket whose LSF filter accepts it; the application
// copies each packet separately to user space via recvfrom (or reads it
// in place with the PACKET_MMAP patch of §6.3.6).
type linuxStack struct {
	sys *System

	backlog   fifo[kpkt]
	softirqOn bool
	softirq   kernelPass // the NET_RX pass; its batch is in flight
	gBacklog  *Gauge

	socks []*sock
}

func newLinuxStack(s *System) *linuxStack {
	st := &linuxStack{sys: s}
	st.gBacklog = s.newGauge("backlog", -1, s.Costs.BacklogLen)
	st.socks = s.newSocks("rcvbuf", s.BufferBytes, false)
	st.softirq.init(s, "net-rx-softirq", st.socks, st.next)
	return st
}

// next follows a softirq pass: another pass while the backlog holds
// packets, else the softirq ends.
func (st *linuxStack) next() {
	if st.backlog.len() > 0 {
		st.scheduleSoftirq()
	} else {
		st.softirqOn = false
	}
}

func (st *linuxStack) reset() {
	st.backlog.reset()
	st.softirqOn = false
	st.softirq.batch = st.softirq.batch[:0]
	resetSocks(st.socks)
}

func (st *linuxStack) remnants() (shared []kpkt, perApp [][]kpkt) {
	shared = append(shared, st.backlog.items()...)
	shared = append(shared, st.softirq.batch...)
	return shared, sockRemnants(st.socks)
}

// irqCost: driver top half — allocate the skb and enqueue the pointer.
// No payload copy happens here (the card DMAed the frame already). The
// PF_RING-style stack skips the skb allocation: the driver hands the raw
// buffer straight towards the ring.
func (st *linuxStack) irqCost(data []byte) (float64, float64) {
	c := &st.sys.Costs
	if st.sys.PFRing {
		return c.RingInsertNS + c.BacklogEnqNS, 0
	}
	return c.SkbAllocNS + c.BacklogEnqNS, 0
}

func (st *linuxStack) irqDone(data []byte) {
	if st.backlog.len() >= st.sys.Costs.BacklogLen {
		st.sys.recordDrop(CauseBacklog, len(data))
		st.gBacklog.overflow()
		return
	}
	st.backlog.push(kpkt{data: data})
	st.gBacklog.observe(st.backlog.len())
	if !st.softirqOn {
		st.softirqOn = true
		st.scheduleSoftirq()
	}
}

// scheduleSoftirq drains up to the quota from the input queue in one
// softirq pass on CPU 0 (softirqs run on the CPU that took the interrupt).
// With PACKET_MMAP or the ring stack the kernel copies each accepted frame
// into the shared ring here, in softirq context.
func (st *linuxStack) scheduleSoftirq() {
	c := &st.sys.Costs
	p := &st.softirq
	p.batch = st.backlog.popInto(p.batch, min(st.backlog.len(), c.SoftirqQuota))
	perPkt, enq := c.SoftirqPerPktNS, c.SockEnqNS
	if st.sys.PFRing {
		// The ring stack bypasses most of netif_receive_skb and the
		// socket queueing.
		perPkt, enq = c.RingInsertNS, c.RingInsertNS
	}
	p.run(st.sys.cpu0(), perPkt, enq, st.sys.MmapPatch || st.sys.PFRing)
}

// appStart runs one read burst of the application's loop: up to AppBatch
// packets, each paying the recvfrom syscall and the copy to user space
// (or the cheap PACKET_MMAP hand-off), plus the configured load.
func (st *linuxStack) appStart(a *App) {
	c := &st.sys.Costs
	if st.sys.MmapPatch || st.sys.PFRing {
		a.readSock(st.socks[a.idx], "recv", 0, st.sys.ufixed(c.MmapPerPktNS), false)
		return
	}
	a.readSock(st.socks[a.idx], "recv", 0, st.sys.ufixed(c.RecvSyscallNS), true)
}

func (st *linuxStack) pending() bool {
	return st.backlog.len() > 0 || st.softirqOn || socksPending(st.socks)
}
