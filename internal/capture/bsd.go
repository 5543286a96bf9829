package capture

import "repro/internal/sim"

// bsdStack models the FreeBSD BPF (§2.1.1): the interrupt handler runs
// every attached filter and copies accepted packets into the STORE half of
// that attachment's double buffer; the application read()s whole HOLD
// buffers at once. Buffers switch when the STORE is full and the HOLD is
// empty, or when the HOLD is empty and the application performs a read.
type bsdStack struct {
	sys  *System
	atts []*batt
	// accepts is what irqCost decided for the packet in hardirq, one entry
	// per attachment, for irqDone to apply.
	accepts []bsdAccept
}

// batt is one BPF attachment (/dev/bpfN) with its double buffer.
type batt struct {
	app   *App
	gauge *Gauge

	store bpfBuf
	hold  bpfBuf
	ready bool // HOLD filled, waiting for the reader

	timeoutArmed bool
	timeout      sim.EventRef
	onTimeout    func() // the read timeout, bound once

	Stored uint64
}

type bpfBuf struct {
	bytes int
	pkts  []kpkt
}

func (b *bpfBuf) reset() { b.bytes, b.pkts = 0, b.pkts[:0] }

func newBSDStack(s *System) *bsdStack {
	st := &bsdStack{sys: s}
	for i, a := range s.apps {
		// The gauge watches one half (STORE) of the double buffer.
		att := &batt{app: a, gauge: s.newGauge("bpf-store", i, s.BufferBytes)}
		att.onTimeout = func() { st.readTimeout(att) }
		st.atts = append(st.atts, att)
	}
	return st
}

func (st *bsdStack) reset() {
	for _, att := range st.atts {
		att.store.reset()
		att.hold.reset()
		att.ready = false
		if att.timeoutArmed {
			att.timeout.Cancel()
			att.timeoutArmed = false
		}
		att.Stored = 0
	}
}

func (st *bsdStack) remnants() (shared []kpkt, perApp [][]kpkt) {
	perApp = make([][]kpkt, len(st.atts))
	for i, att := range st.atts {
		perApp[i] = append(append([]kpkt(nil), att.hold.pkts...), att.store.pkts...)
	}
	return nil, perApp
}

// bsdAccept records one attachment's decision for irqDone.
type bsdAccept struct {
	att    *batt
	caplen int
	rotate bool // swap buffers before storing
	drop   bool // both buffer halves full: reject without copying
	reject bool // filter rejected the packet for this attachment
}

// irqCost prices the in-interrupt work: mbuf setup, one filter run per
// attachment, and the copy of each accepted packet into its STORE buffer —
// FreeBSD's extra copy compared to Linux (§2.2.2).
//
// Crucially, catchpacket() checks buffer space *before* copying: when both
// halves are full the packet is dropped for the price of the filter run
// alone. Under overload this keeps the interrupt handler cheap and leaves
// the CPU to the (overloaded) application — the structural reason FreeBSD
// degrades more gracefully than Linux under per-packet load (§6.3.4).
// The decision is made here because interrupt tasks execute strictly in
// order; an application read between decision and execution can only free
// space, making the decision conservative.
func (st *bsdStack) irqCost(data []byte) (float64, float64) {
	c := &st.sys.Costs
	fixed := c.MbufNS
	var mem float64
	st.accepts = st.accepts[:0]
	for _, att := range st.atts {
		caplen, fcost := st.sys.runFilter(data)
		fixed += fcost
		if caplen == 0 {
			st.accepts = append(st.accepts, bsdAccept{att: att, reject: true})
			continue
		}
		acc := bsdAccept{att: att, caplen: caplen}
		sz := align4(caplen + c.BpfHdrBytes)
		if att.store.bytes+sz > st.sys.BufferBytes {
			// "The buffers are switched if the STORE buffer is full and a
			// packet is waiting" — possible only while HOLD is free.
			if !att.ready && att.hold.bytes == 0 {
				acc.rotate = true
			} else {
				acc.drop = true
			}
		}
		if !acc.drop && sz > st.sys.BufferBytes {
			acc.drop = true // single packet larger than a buffer half
		}
		if acc.drop {
			fixed += 50 // bump the drop counter, free the mbuf reference
		} else {
			fixed += c.BpfStoreNS
			mem += float64(caplen + c.BpfHdrBytes)
		}
		st.accepts = append(st.accepts, acc)
	}
	return fixed, mem
}

func (st *bsdStack) irqDone(data []byte) {
	for _, acc := range st.accepts {
		att := acc.att
		if acc.reject {
			st.sys.recordDrop(CauseFilter, len(data))
			continue
		}
		if acc.drop {
			st.sys.recordDrop(CauseBPFBuf, acc.caplen)
			att.gauge.overflow()
			continue
		}
		if acc.rotate {
			st.rotate(att)
		}
		sz := align4(acc.caplen + st.sys.Costs.BpfHdrBytes)
		if att.store.bytes+sz > st.sys.BufferBytes {
			// Defensive: the decision was invalidated concurrently.
			st.sys.recordDrop(CauseBPFBuf, acc.caplen)
			att.gauge.overflow()
			continue
		}
		att.store.pkts = append(att.store.pkts, kpkt{data: data, caplen: acc.caplen})
		att.store.bytes += sz
		att.gauge.observe(att.store.bytes)
		att.Stored++
	}
}

// rotate swaps STORE into HOLD and wakes a reader blocked in read().
func (st *bsdStack) rotate(att *batt) {
	att.hold, att.store = att.store, att.hold
	if n := len(att.store.pkts); n > 0 {
		// A rotate decided in irqCost while the HOLD was empty can execute
		// after the reader has rotated on read and parked on backpressure:
		// the buffers swap a second time and the just-filled HOLD lands in
		// STORE position, where the reset below discards it. The discard is
		// part of the modeled double-buffer behaviour; book the packets as
		// buffer drops so conservation holds.
		var bytes uint64
		for _, p := range att.store.pkts {
			bytes += uint64(p.caplen)
		}
		st.sys.ledger.RecordN(CauseBPFBuf, n, bytes, st.sys.Sim.Now()-st.sys.runStart)
	}
	att.store.reset()
	att.ready = true
	if att.app.state == stWaitingRead {
		if att.timeoutArmed {
			att.timeout.Cancel()
			att.timeoutArmed = false
		}
		att.app.state = stIdle
		st.appStart(att.app)
	}
}

// appStart performs the application's next read() on /dev/bpf: return the
// HOLD buffer if ready, else rotate a non-empty STORE ("if the HOLD buffer
// is empty and the application performs a read"), else block.
func (st *bsdStack) appStart(a *App) {
	if a.busy() || a.state == stWaitingRead {
		return
	}
	att := st.atts[a.idx]
	if !att.ready && att.store.bytes > 0 {
		att.hold, att.store = att.store, att.hold
		att.store.reset()
		att.ready = true
	}
	if !att.ready {
		a.state = stWaitingRead
		st.armTimeout(att)
		return
	}
	if a.blockedOnBackpressure() {
		return
	}
	st.consumeHold(a, att)
}

// armTimeout models the BPF read timeout: a blocked reader with data only
// in STORE gets it after ReadTimeoutNS even if the buffer never fills.
func (st *bsdStack) armTimeout(att *batt) {
	if st.sys.Costs.ReadTimeoutNS <= 0 || att.timeoutArmed {
		return
	}
	att.timeoutArmed = true
	att.timeout = st.sys.Sim.After(sim.Time(st.sys.Costs.ReadTimeoutNS), att.onTimeout)
}

// readTimeout fires the read timeout of a reader blocked on att.
func (st *bsdStack) readTimeout(att *batt) {
	att.timeoutArmed = false
	if att.app.state != stWaitingRead {
		return
	}
	if att.store.bytes > 0 || att.ready {
		att.app.state = stIdle
		st.appStart(att.app)
		return
	}
	if !st.sys.genDone || st.sys.NIC.holding() {
		// Keep the blocking read's timer running while a packet can
		// still reach STORE: generation goes on, or the NIC holds one.
		st.armTimeout(att)
		return
	}
	att.app.state = stIdle // no more data will ever arrive
}

// consumeHold reads the whole HOLD buffer in one syscall — FreeBSD's bulk
// copy to user space — then processes every packet in the chunk.
func (st *bsdStack) consumeHold(a *App, att *batt) {
	// The reader takes the HOLD buffer, and its spent buffer from the
	// last read becomes the empty HOLD.
	chunkBytes := att.hold.bytes
	a.batch, att.hold = att.hold.pkts, bpfBuf{pkts: a.batch[:0]}
	att.ready = false
	a.state = stRunning

	// The bulk copy pays the cache penalty once the chunk exceeds L2: the
	// mechanism behind the thesis's single-CPU degradation with large
	// double buffers (Figure 6.4a). The penalty is folded into equivalent
	// bytes because a task has a single per-byte rate. The memory-mapped
	// variant (§7.2 future work) reads the buffer in place: no copy at all,
	// and without the copy the chunk is not pre-warmed.
	copyBytes := float64(chunkBytes)
	locality := st.sys.Costs.BulkLocalityFactor
	if st.sys.MmapPatch {
		copyBytes, locality = 0, 1.0
	} else if chunkBytes > st.sys.Arch.CacheBytes {
		copyBytes *= st.sys.Arch.CachePenalty
	}
	// The controller watches the STORE half filling behind the read: by
	// the time the HOLD is consumed, store occupancy is the freshest
	// congestion signal this attachment has.
	occ := a.occupancy(float64(att.store.bytes) / float64(st.sys.BufferBytes))
	a.read("bpf-read", occ, st.sys.ufixed(st.sys.Costs.ReadSyscallNS), copyBytes, locality)
}

func (st *bsdStack) pending() bool {
	for _, att := range st.atts {
		if att.store.bytes > 0 || att.ready {
			return true
		}
	}
	return false
}

func align4(n int) int { return (n + 3) &^ 3 }
