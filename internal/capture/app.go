package capture

import (
	"repro/internal/flows"
	"repro/internal/sim"
)

// App is one capturing application (the createDist tool used as capture
// program in the measurements): it reads packets from its OS attachment
// and applies the configured per-packet load.
type App struct {
	sys *System
	idx int

	state appState

	// Captured counts packets fully delivered to the application: the
	// numerator of the thesis's capturing rate.
	Captured uint64

	// Timeslice tracking for the Linux read loop: while an application
	// has consumed less than the scheduler timeslice of consecutive CPU
	// time and still has data, it keeps its CPU instead of yielding.
	lastCPU   *sim.CPU
	sliceUsed float64
	pipe      *pipe

	// Worker-thread state (§7.2 extension: "using multiple threads on one
	// machine to take full advantage of multiprocessor systems" [DV04]):
	// outstanding bytes queued to analysis workers; the reader blocks when
	// the queue is full.
	workerOutstanding int
	gWorker           *Gauge

	// Packets inside the currently running read task: already taken from
	// the OS buffers but not yet counted as captured. Booked under
	// CauseAbandoned when a run is truncated mid-read.
	inflightPkts  int
	inflightBytes uint64

	// Sampling / load-shedding policy state (policy.go). sampler is nil
	// when no policy is configured — the unpoliced fast path. Shed counts
	// the packets the policy declined; flowsKept tracks the distinct flow
	// hashes among delivered packets when flow coverage is enabled.
	sampler   policySampler
	Shed      uint64
	flowsKept map[uint64]struct{}

	// The read in flight, at most one: its task, bound once, and the
	// buffers its batch, UMEM frames (zero copy), admission and load land
	// in. The FreeBSD stack trades batch with the HOLD buffer instead.
	readTask sim.Task
	batch    []kpkt
	frames   []*xframe
	adm      admission
	load     readLoad
}

func newApp(s *System, idx int) *App {
	a := &App{sys: s, idx: idx}
	a.readTask = sim.Task{Prio: sim.PrioUser, OnDone: a.readDone}
	if s.Load.PipeGzip > 0 {
		a.pipe = &pipe{sys: s, app: a, level: s.Load.PipeGzip,
			gauge: s.newGauge("pipe", idx, s.Costs.PipeBufBytes)}
		a.pipe.task = sim.Task{Name: "gzip", Prio: sim.PrioUser, OnDone: a.pipe.consumed}
	}
	if s.Load.Workers > 0 {
		a.gWorker = s.newGauge("worker-queue", idx, s.Costs.WorkerQueueBytes)
	}
	a.sampler = s.Policy.newSampler()
	if a.sampler != nil || s.CountFlows {
		a.flowsKept = make(map[uint64]struct{})
	}
	return a
}

// reset clears the application's per-run state for System reuse.
func (a *App) reset() {
	a.state = stIdle
	a.Captured = 0
	a.lastCPU = nil
	a.sliceUsed = 0
	a.workerOutstanding = 0
	a.inflightPkts, a.inflightBytes = 0, 0
	a.Shed = 0
	if a.sampler != nil {
		a.sampler.reset()
	}
	clear(a.flowsKept)
	if a.pipe != nil {
		p := a.pipe
		p.buf, p.busy, p.producerBlocked = 0, false, false
		p.BytesIn, p.BytesOut = 0, 0
	}
}

// admission is the sampling-policy outcome of one read batch: which
// packets the application processes, what it shed, and the decision cost.
// The stacks compute it when the read batch is built and book it via
// finishRead when the read task completes, so truncated runs account the
// whole batch as in flight (CauseAbandoned) rather than half-shed.
type admission struct {
	caplens   []int    // capture lengths of the admitted packets
	flowKeys  []uint64 // flow hashes of the admitted packets
	shed      int
	shedBytes uint64
	policyNS  float64 // decision cost folded into the read task
}

// admitBatch applies the application's sampling policy to the read batch,
// into a.adm. occ is the queue occupancy in [0,1] observed when the read
// started (the adaptive controller's feedback signal). Every packet of the
// batch has already been read from the OS buffers — shedding skips the
// per-packet analysis load, not the kernel or syscall cost. Without a
// policy the batch is admitted wholesale at zero cost.
func (a *App) admitBatch(occ float64) {
	adm := &a.adm
	adm.caplens, adm.flowKeys = adm.caplens[:0], adm.flowKeys[:0]
	adm.shed, adm.shedBytes, adm.policyNS = 0, 0, 0
	if a.sampler == nil {
		if a.flowsKept == nil {
			// The measurement fast path: no policy, no flow accounting.
			// Kept free of per-packet calls — this loop runs for every
			// packet of every unpoliced benchmark and golden run.
			for _, p := range a.batch {
				adm.caplens = append(adm.caplens, p.caplen)
			}
			return
		}
		for _, p := range a.batch {
			adm.caplens = append(adm.caplens, p.caplen)
			adm.noteFlow(a, p.data)
		}
		return
	}
	a.sampler.observe(occ)
	adm.policyNS = a.sys.ufixed(a.sys.Costs.PolicyPerPktNS) * float64(len(a.batch))
	for _, p := range a.batch {
		if !a.sampler.admit(p.data) {
			adm.shed++
			adm.shedBytes += uint64(p.caplen)
			continue
		}
		adm.caplens = append(adm.caplens, p.caplen)
		adm.noteFlow(a, p.data)
	}
}

// noteFlow records one admitted packet's flow hash for flow-coverage
// accounting (applied to the app's table only when the read completes).
func (adm *admission) noteFlow(a *App, frame []byte) {
	if a.flowsKept == nil {
		return
	}
	if k, ok := flows.KeyOf(frame); ok {
		adm.flowKeys = append(adm.flowKeys, k.Hash())
	}
}

// busy reports whether the application is inside a read or parked on
// disk, pipe or worker backpressure: its loop resumes on its own.
func (a *App) busy() bool {
	return a.state == stRunning || a.state == stBlockedDisk ||
		a.state == stBlockedPipe || a.state == stBlockedWorkers
}

// readSock runs one read burst from the application's socket: up to
// AppBatch packets, syscallNS once and perPktNS per packet (a syscall or
// a ring hand-off), with copyOut a copy of each packet to user space.
func (a *App) readSock(sk *sock, name string, syscallNS, perPktNS float64, copyOut bool) {
	if a.busy() {
		return
	}
	if sk.queue.len() == 0 {
		a.state = stIdle
		return
	}
	if a.blockedOnBackpressure() {
		return
	}
	a.state = stRunning
	// Occupancy is observed before the batch is drained: the controller
	// sees the socket as the wakeup found it.
	occ := a.occupancy(float64(sk.used) / float64(sk.capacity))
	n := min(sk.queue.len(), a.sys.Costs.AppBatch)
	a.batch = sk.queue.popInto(a.batch, n)
	a.frames = a.frames[:0]
	if sk.frames.len() > 0 {
		a.frames = sk.frames.popInto(a.frames, n)
	}
	fixed, mem := syscallNS, 0.0
	for _, p := range a.batch {
		sk.used -= sk.charge(p.caplen)
		fixed += perPktNS
		if copyOut {
			mem += float64(p.caplen)
		}
	}
	a.read(name, occ, fixed, mem, 1.0)
}

// read is the one read task of every stack. The stack has taken a.batch
// off its buffer and priced the hand-off (fixed, mem: syscalls and
// copies); the sampling policy picks the packets to process, whose load
// joins the task (memory-bound part discounted by locality) or goes to
// the analysis workers. When the task completes (readDone) the batch
// counts as captured or shed, its UMEM frames (zero copy) return to the
// pool, and the loop goes on with the next read.
func (a *App) read(name string, occ, fixed, mem, locality float64) {
	a.inflightPkts = len(a.batch)
	for _, p := range a.batch {
		a.inflightBytes += uint64(p.caplen)
	}
	a.admitBatch(occ)
	fixed += a.adm.policyNS
	loadFixed, loadMem := a.batchLoad(locality)
	fixed += loadFixed
	mem += loadMem
	t := &a.readTask
	t.Name, t.FixedNS, t.MemBytes, t.MemNsPerByte = name, fixed, mem, a.sys.umemNs()
	a.submitWork(t, fixed+mem*a.sys.umemNs())
}

// readDone completes the read in flight.
func (a *App) readDone() {
	a.finishRead()
	for _, f := range a.frames {
		f.release()
	}
	a.finishLoad()
	a.state = stIdle
	a.sys.stack.appStart(a)
}

// finishRead books a completed read batch: admitted packets count as
// captured (with their flows), shed packets go to the policy's ledger
// cause at completion time, and the in-flight window closes.
func (a *App) finishRead() {
	adm := &a.adm
	a.Captured += uint64(len(adm.caplens))
	for _, h := range adm.flowKeys {
		a.flowsKept[h] = struct{}{}
	}
	if adm.shed > 0 {
		a.Shed += uint64(adm.shed)
		a.sys.ledger.RecordN(a.sys.Policy.Cause(), adm.shed, adm.shedBytes,
			a.sys.Sim.Now()-a.sys.runStart)
	}
	a.inflightPkts, a.inflightBytes = 0, 0
}

// occupancy folds the application's queue fill signals into the adaptive
// controller's feedback value: the OS-buffer occupancy observed by the
// stack, and — when analysis workers are configured — the worker-queue
// occupancy, whichever is more congested.
func (a *App) occupancy(bufOcc float64) float64 {
	occ := bufOcc
	if a.sys.Load.Workers > 0 && a.sys.Costs.WorkerQueueBytes > 0 {
		if w := float64(a.workerOutstanding) / float64(a.sys.Costs.WorkerQueueBytes); w > occ {
			occ = w
		}
	}
	return occ
}

// procCost prices the application-side handling of one packet beyond the
// OS hand-off: bookkeeping plus the configured artificial load.
// It returns the fixed ns cost, memory bytes touched, bytes destined for
// the disk queue and bytes destined for the gzip pipe.
func (a *App) procCost(caplen int) (fixed, memBytes float64, diskBytes, pipeBytes int) {
	c := &a.sys.Costs
	ld := a.sys.Load
	fixed = a.sys.ufixed(c.AppPerPktNS)
	if ld.FlowTrack {
		// Header parse + hash + map update; touches the packet headers and
		// one table entry.
		fixed += a.sys.ufixed(c.FlowTrackNS)
		memBytes += 128
	}
	if ld.MemcpyCount > 0 {
		memBytes += float64(ld.MemcpyCount * caplen)
	}
	if ld.ZlibLevel > 0 {
		// gzwrite(): compute-dominated; the per-byte constant is already
		// architecture-specific (the Netburst Xeon is better at this, the
		// one place the thesis saw Intel ahead), so no FixedCost scaling.
		fixed += float64(caplen) * a.sys.Arch.ZlibNsPerByte(ld.ZlibLevel)
		memBytes += float64(caplen)
	}
	if a.pipe != nil {
		fixed += a.sys.ufixed(c.PipePerPktNS)
		memBytes += float64(caplen)
		pipeBytes = caplen
	}
	if ld.WriteSnapLen > 0 || ld.WriteFull {
		n := caplen
		if !ld.WriteFull && ld.WriteSnapLen < caplen {
			n = ld.WriteSnapLen
		}
		n += 16 // pcap record header
		memBytes += float64(n)
		fixed += float64(n) * a.sys.Arch.DiskCPUPerByteNS
		diskBytes = n
	}
	return fixed, memBytes, diskBytes, pipeBytes
}

// readLoad is the per-packet load of the read in flight: priced when
// the read starts, applied when it completes.
type readLoad struct {
	fixed, mem  float64 // the analysis load
	disk, pipe  int     // bytes for the disk queue and the gzip pipe
	bytes, pkts int     // the admitted packets and their bytes
}

// batchLoad prices the per-packet load of the admitted packets into
// a.load. locality discounts the memory-bound part (FreeBSD bulk reads
// leave the chunk cache-warm). Without worker threads the costs are
// folded into the read task (inline) and finishLoad applies the disk/pipe
// side effects; with Load.Workers > 0 the load runs as separate worker
// tasks that may execute on other CPUs, and finishLoad dispatches them.
func (a *App) batchLoad(locality float64) (inlineFixed, inlineMem float64) {
	ld := readLoad{pkts: len(a.adm.caplens)}
	for _, cl := range a.adm.caplens {
		pf, pm, db, pb := a.procCost(cl)
		ld.fixed += pf
		ld.mem += pm * locality
		ld.disk += db
		ld.pipe += pb
		ld.bytes += cl
	}
	a.load = ld
	if a.sys.Load.Workers <= 0 {
		return ld.fixed, ld.mem
	}
	return 0, 0
}

// applyLoad hands a batch's disk and pipe bytes on.
func (a *App) applyLoad(disk, pipe int) {
	if disk > 0 {
		a.sys.Disk.Write(disk)
	}
	if pipe > 0 {
		a.pipe.write(pipe)
	}
}

// finishLoad applies the completed read's load. In worker mode the reader
// only paid the hand-off: the analysis load is split over up to
// Load.Workers tasks dispatched to whatever CPUs are free, and the side
// effects go with the last of them. Backpressure: the reader blocks once
// too many bytes are in flight (blockedOnBackpressure checks
// workerOutstanding).
func (a *App) finishLoad() {
	ld := a.load
	workers := a.sys.Load.Workers
	if workers <= 0 || ld.pkts == 0 {
		a.applyLoad(ld.disk, ld.pipe)
		return
	}
	parts := min(workers, ld.pkts)
	a.workerOutstanding += ld.bytes
	a.gWorker.observe(a.workerOutstanding)
	fixedPer := ld.fixed / float64(parts)
	memPer := ld.mem / float64(parts)
	bytesPer := ld.bytes / parts
	for i := 0; i < parts; i++ {
		w := a.sys.newTask()
		w.Name, w.Prio, w.FixedNS, w.MemBytes, w.MemNsPerByte = "worker", sim.PrioUser, fixedPer, memPer, a.sys.umemNs()
		w.app, w.rel, w.disk, w.pipe = a, bytesPer, 0, 0
		if i == parts-1 {
			// The side effects go once per batch, with the last part.
			w.rel, w.disk, w.pipe = ld.bytes-bytesPer*(parts-1), ld.disk, ld.pipe
		}
		a.sys.Machine.SubmitUser(&w.Task)
	}
}

// workerDone completes one worker share of a batch: it releases rel bytes
// of the worker queue and applies the batch's disk and pipe bytes.
func (a *App) workerDone(rel, disk, pipe int) {
	a.workerOutstanding -= rel
	a.gWorker.observe(a.workerOutstanding)
	a.applyLoad(disk, pipe)
	if a.state == stBlockedWorkers &&
		a.workerOutstanding < a.sys.Costs.WorkerQueueBytes/2 {
		a.resume()
	}
}

// blockedOnBackpressure checks disk, pipe and worker backpressure before
// the app consumes more packets; it parks the app if any is full.
func (a *App) blockedOnBackpressure() bool {
	if a.sys.Disk.full() && (a.sys.Load.WriteSnapLen > 0 || a.sys.Load.WriteFull) {
		a.state = stBlockedDisk
		a.sys.Disk.addWaiter(a)
		a.sys.Disk.gauge.overflow()
		return true
	}
	if a.pipe != nil && a.pipe.full() {
		a.state = stBlockedPipe
		a.pipe.producerBlocked = true
		a.pipe.gauge.overflow()
		return true
	}
	if a.sys.Load.Workers > 0 && a.workerOutstanding >= a.sys.Costs.WorkerQueueBytes {
		a.state = stBlockedWorkers
		a.gWorker.overflow()
		return true
	}
	return false
}

// submitWork places an application task honoring the Linux timeslice-hog
// behaviour: a reader that still has data continues on its CPU — ahead of
// other runnable user tasks — until its timeslice is spent. It abandons
// the CPU early only when interrupt/kernel work is monopolizing it (the
// 2.6 load balancer pulls runnable tasks to idle CPUs). FreeBSD's reader
// sleeps between buffer chunks, so it always yields and re-queues fairly.
func (a *App) submitWork(t *sim.Task, estNS float64) {
	hog := a.sys.OS == Linux && a.lastCPU != nil &&
		a.sliceUsed+estNS <= a.sys.Costs.TimesliceNS &&
		!kernelBusy(a.lastCPU)
	if hog {
		a.sliceUsed += estNS
		a.lastCPU.SubmitFront(t)
		return
	}
	a.sliceUsed = estNS
	a.lastCPU = a.sys.Machine.SubmitUser(t)
}

// kernelBusy reports whether the CPU currently has above-user-priority
// work running or queued, i.e. a user task would be starved there.
func kernelBusy(c *sim.CPU) bool {
	for p := sim.PrioHardIRQ; p < sim.PrioUser; p++ {
		if c.QueueLen(p) > 0 {
			return true
		}
	}
	return c.Running() != nil && c.Running().Prio < sim.PrioUser
}

// resume is called by disk/pipe/worker wakeups.
func (a *App) resume() {
	if a.state != stBlockedDisk && a.state != stBlockedPipe && a.state != stBlockedWorkers {
		return
	}
	a.state = stIdle
	a.sys.stack.appStart(a)
}

// pipe models the named-pipe-to-gzip setup of §6.3.4: the capture process
// writes whole packets into a fifo; a separate gzip process compresses
// them. Splitting producer and consumer puts the compression on the other
// CPU — and introduces the pipe as a new bottleneck.
type pipe struct {
	sys   *System
	app   *App
	level int
	gauge *Gauge

	buf             int
	busy            bool
	producerBlocked bool

	task  sim.Task // the gzip run over chunk, bound once
	chunk int

	BytesIn  uint64
	BytesOut uint64
}

func (p *pipe) full() bool { return p.buf >= p.sys.Costs.PipeBufBytes }

// write is called when the producer's task has completed.
func (p *pipe) write(n int) {
	p.buf += n
	p.BytesIn += uint64(n)
	p.gauge.observe(p.buf)
	if !p.busy {
		p.consume()
	}
}

// consume runs the gzip process: one task per pipe chunk.
func (p *pipe) consume() {
	chunk := p.buf
	if max := p.sys.Costs.PipeBufBytes; chunk > max {
		chunk = max
	}
	if chunk <= 0 {
		p.busy = false
		return
	}
	p.busy = true
	p.chunk = chunk
	t := &p.task
	t.FixedNS = float64(chunk)*p.sys.Arch.ZlibNsPerByte(p.level) + p.sys.ufixed(2000)
	t.MemBytes, t.MemNsPerByte = float64(chunk), p.sys.umemNs()
	p.sys.Machine.SubmitUser(t)
}

// consumed completes the gzip run over a chunk.
func (p *pipe) consumed() {
	p.buf -= p.chunk
	p.BytesOut += uint64(p.chunk)
	p.gauge.observe(p.buf)
	if p.producerBlocked && p.buf < p.sys.Costs.PipeBufBytes/2 {
		p.producerBlocked = false
		p.app.resume()
	}
	if p.buf > 0 {
		p.consume()
	} else {
		p.busy = false
	}
}
