package capture

import (
	"fmt"

	"repro/internal/pktgen"
	"repro/internal/sim"
)

// Source produces the packet train a run consumes. *pktgen.Generator is
// the canonical implementation; core.Feed replays a train recorded once —
// the splitter semantics of Figure 3.1, where every sniffer sees the
// byte-identical input. Reset rewinds the source to the start of its
// train; Next returns packets in arrival order, each stamped (At) with its
// arrival time relative to the start of the run.
type Source interface {
	Reset()
	Next() (pktgen.Packet, bool)
}

// stack is the OS-specific half of the receive path.
type stack interface {
	// appStart kicks (or resumes) an application's read loop.
	appStart(a *App)
	// pending reports whether the stack still holds undelivered packets.
	pending() bool
	// reset clears all per-run state so the System can run another train.
	reset()
	// remnants inventories the packets still queued inside the stack when
	// a run is truncated: shared queues (before the per-app fan-out) and
	// the per-application buffers.
	remnants() (shared []kpkt, perApp [][]kpkt)
}

// spinner is a stack whose cores spin for the whole run (poll mode). start
// launches the spins once the run is live; stop ends them once it is over,
// given the last window limit the run advanced to.
type spinner interface {
	start()
	stop(limit sim.Time)
}

// appState tracks what an application is doing.
type appState int

const (
	stIdle appState = iota // no data; will be woken by the stack
	stRunning
	stWaitingRead // FreeBSD: blocked in read() on /dev/bpf
	stBlockedDisk
	stBlockedPipe
	stBlockedWorkers
)

// System is one sniffer under test: architecture, OS stack, applications,
// disk, and its own simulator instance. Each of the four thesis machines
// is one System fed the identical generated packet train (the optical
// splitter guarantees identical input; separate simulator instances
// guarantee independence).
type System struct {
	Config

	Sim     *sim.Sim
	Machine *sim.Machine
	NIC     *NIC    // legacy single-queue NIC (nil on the modern stacks)
	rss     *rssNIC // RSS multi-queue NIC (nil on the legacy stacks)
	Disk    *Disk

	stack stack
	apps  []*App

	running   bool
	genDone   bool
	genEnd    sim.Time
	runStart  sim.Time // Sim.Now() when the current run began
	truncated bool     // the run hit the safety cap with packets in flight

	// The feed: the run's source, the packets it has sent, the packet of
	// the one scheduled arrival, and that arrival's event, bound once.
	src     Source
	sent    uint64
	next    pktgen.Packet
	arrival func()

	housekeep []func() // each CPU's housekeeping tick, bound once
	tasks     []*pooledTask

	// Per-CPU, per-priority busy counters bracketing the generation window
	// (cpusage semantics, §5): snapshot at run start, delta at genEnd.
	busyAtStart  [][sim.NumPrio]sim.Time
	busyAtGenEnd [][sim.NumPrio]sim.Time

	// Drop-cause accounting for the current run.
	ledger Ledger
	gauges []*Gauge

	// Timestamp-accuracy accounting (see NIC.stamp).
	tsStamped uint64
	tsErrSum  sim.Time
	tsErrMax  sim.Time
	tsTies    uint64
}

// newGauge registers an occupancy gauge for one finite buffer. idx >= 0
// tags per-application buffers when several applications are attached.
func (s *System) newGauge(name string, idx, capacity int) *Gauge {
	if idx >= 0 && s.NumApps > 1 {
		name = fmt.Sprintf("%s[%d]", name, idx)
	}
	g := &Gauge{Name: name, Capacity: capacity}
	s.gauges = append(s.gauges, g)
	return g
}

// recordDrop books one lost packet; ledger timestamps are relative to the
// run start so repeated runs of one System produce identical ledgers.
func (s *System) recordDrop(c Cause, bytes int) {
	s.ledger.Record(c, bytes, s.Sim.Now()-s.runStart)
}

// NewSystem assembles a system from its configuration.
func NewSystem(cfg Config) *System {
	if cfg.NumCPUs <= 0 {
		cfg.NumCPUs = 2
	}
	if cfg.KernelCostFactor <= 0 {
		cfg.KernelCostFactor = 1.0
	}
	if cfg.Snaplen <= 0 {
		cfg.Snaplen = 1515 // tcpdump -s 1515, §6.3.4
	}
	if cfg.NumApps <= 0 {
		cfg.NumApps = 1
	}
	if cfg.BufferBytes <= 0 {
		if cfg.OS == Linux {
			cfg.BufferBytes = DefaultLinuxRcvbuf
		} else {
			cfg.BufferBytes = DefaultBSDBuffer
		}
	}
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	if cfg.Hyperthreading && !cfg.Arch.HasHyperthreading {
		cfg.Hyperthreading = false
	}
	if cfg.DiskQueueBytes <= 0 {
		cfg.DiskQueueBytes = 32 << 20
	}

	s := &System{Config: cfg, Sim: sim.New()}
	ncpu := cfg.NumCPUs
	if cfg.Hyperthreading {
		ncpu *= 2
	}
	s.Machine = sim.NewMachine(s.Sim, ncpu, cfg.Hyperthreading)
	s.Machine.MemContention = cfg.Arch.MemContention
	if cfg.Hyperthreading {
		s.Machine.HTSlowdown = cfg.Arch.HTSlowdown
	}
	s.arrival = s.arrive
	if cfg.Stack == StackLegacy {
		s.NIC = newNIC(s)
	} else {
		// Clamp the ring count to the CPUs that can service them; poll
		// mode additionally keeps at least one core free of PMD spin
		// loops so application work can run.
		rings := cfg.RXRings
		if rings <= 0 || rings > ncpu {
			rings = ncpu
		}
		if cfg.Stack == StackPoll && rings >= ncpu && ncpu > 1 {
			rings = ncpu - 1
		}
		s.RXRings = rings
		s.rss = newRSSNIC(s, rings)
	}
	s.Disk = &Disk{sys: s, MaxQueue: cfg.DiskQueueBytes}
	s.Disk.gauge = s.newGauge("disk-queue", -1, cfg.DiskQueueBytes)

	for i := 0; i < cfg.NumApps; i++ {
		s.apps = append(s.apps, newApp(s, i))
	}
	switch {
	case cfg.Stack == StackRSS:
		st := newRSSStack(s, s.RXRings)
		s.stack = st
		s.rss.kick = st
	case cfg.Stack == StackPoll:
		s.stack = newPollStack(s, s.RXRings)
	case cfg.Stack == StackZeroCopy:
		st := newXDPStack(s, s.RXRings)
		s.stack = st
		s.rss.kick = st
	case cfg.OS == Linux:
		st := newLinuxStack(s)
		s.stack, s.NIC.irq = st, st
	case cfg.OS == FreeBSD:
		st := newBSDStack(s)
		s.stack, s.NIC.irq = st, st
	default:
		panic(fmt.Sprintf("capture: unknown OS %d", cfg.OS))
	}
	return s
}

// kfixed scales a fixed kernel cost by architecture and system friction.
func (s *System) kfixed(ns float64) float64 {
	return ns * s.Arch.FixedCost * s.KernelCostFactor
}

// kmemNs is the per-byte cost of kernel-context copies.
func (s *System) kmemNs() float64 {
	return s.Arch.MemNsPerByte * s.KernelCostFactor
}

// umemNs is the per-byte cost of user-context copies.
func (s *System) umemNs() float64 { return s.Arch.MemNsPerByte }

// ufixed scales a fixed application-side cost by the architecture.
func (s *System) ufixed(ns float64) float64 { return ns * s.Arch.FixedCost }

func (s *System) cpu0() *sim.CPU { return s.Machine.CPUs[0] }

// caplen applies the snap length to a frame.
func (s *System) caplen(n int) int {
	if n > s.Snaplen {
		return s.Snaplen
	}
	return n
}

// runFilter executes the configured filter for one packet and returns the
// capture length (0 = rejected) and the filtering cost in ns.
func (s *System) runFilter(data []byte) (caplen int, costNS float64) {
	if s.Filter == nil {
		return s.caplen(len(data)), 0
	}
	res, err := s.Filter.Run(data)
	if err != nil {
		return 0, float64(res.Instructions) * s.Costs.FilterPerInstrNS
	}
	cost := float64(res.Instructions) * s.Costs.FilterPerInstrNS
	if res.Accept == 0 {
		return 0, cost
	}
	n := int(res.Accept)
	if n > len(data) {
		n = len(data)
	}
	return s.caplen(n), cost
}

// pooledTask is a task of a site that can have several in flight:
// housekeeping queues one per period even while a livelock keeps it from
// running, and a read's analysis load runs as several worker shares. It
// comes from its System's free list and goes back when it completes.
type pooledTask struct {
	sim.Task
	sys *System
	// A worker share: its application (nil for housekeeping), the worker
	// queue bytes it releases, and the disk and pipe bytes it writes.
	app        *App
	rel        int
	disk, pipe int
}

// maxFreeTasks caps the free list, so a livelocked run's pile of queued
// housekeeping does not stay pinned for the rest of a campaign.
const maxFreeTasks = 1024

// newTask takes a task off the free list, or makes one.
func (s *System) newTask() *pooledTask {
	if n := len(s.tasks); n > 0 {
		t := s.tasks[n-1]
		s.tasks = s.tasks[:n-1]
		return t
	}
	t := &pooledTask{sys: s}
	t.OnDone = t.done
	return t
}

func (t *pooledTask) done() {
	a, rel, disk, pipe := t.app, t.rel, t.disk, t.pipe
	if s := t.sys; len(s.tasks) < maxFreeTasks {
		s.tasks = append(s.tasks, t)
	}
	if a != nil {
		a.workerDone(rel, disk, pipe)
	}
}

// startHousekeeping arms the periodic kernel-housekeeping tasks on every
// CPU but those a poll-mode driver spins on: a task queued behind the
// spin could never run while the run is live, and real deployments
// isolate PMD cores from such work the same way.
func (s *System) startHousekeeping() {
	if s.Costs.HousekeepNS <= 0 || s.Costs.HousekeepPeriodNS <= 0 {
		return
	}
	if s.housekeep == nil {
		s.housekeep = make([]func(), len(s.Machine.CPUs))
		for i := range s.housekeep {
			s.housekeep[i] = func() { s.housekeepTick(i) }
		}
	}
	for i := range s.Machine.CPUs {
		if s.Machine.Reserved(i) {
			continue
		}
		// Stagger across CPUs so both are never stalled at once.
		offset := sim.Time(s.Costs.HousekeepPeriodNS * float64(i+1) / float64(len(s.Machine.CPUs)+1))
		s.Sim.At(s.Sim.Now()+offset, s.housekeep[i])
	}
}

// housekeepTick queues one housekeeping task on CPU i and arms the next.
func (s *System) housekeepTick(i int) {
	if !s.running {
		return
	}
	t := s.newTask()
	t.Name, t.Prio, t.FixedNS, t.MemBytes, t.MemNsPerByte = "housekeeping", sim.PrioKernel, s.Costs.HousekeepNS, 0, 0
	t.app = nil
	s.Machine.CPUs[i].Submit(&t.Task)
	s.Sim.After(sim.Time(s.Costs.HousekeepPeriodNS), s.housekeep[i])
}

// quiescent reports whether all packets in flight have been fully handled.
func (s *System) quiescent() bool {
	if s.rss != nil {
		if !s.rss.idle() || s.stack.pending() {
			return false
		}
	} else if s.NIC.holding() || s.stack.pending() {
		return false
	}
	for _, a := range s.apps {
		if a.busy() {
			return false
		}
		if a.pipe != nil && (a.pipe.buf > 0 || a.pipe.busy) {
			return false
		}
	}
	return true
}

// Run feeds the generator's packet train into the NIC, lets the system
// drain completely (the thesis stops the capturing applications only after
// generation has finished and everything buffered has been read), and
// returns the run statistics.
func (s *System) Run(gen *pktgen.Generator) Stats {
	return s.RunSource(gen)
}

// RunSource is Run for any packet source: a recorded splitter feed
// replayed into several systems, or a source that re-times that feed
// (self-similar arrivals). Each packet arrives at its At offset from the
// start of the run, so a reused System replays any train exactly as a
// fresh one does.
func (s *System) RunSource(src Source) Stats {
	return s.run(src)
}

// resetRun clears every per-run counter and state machine so that a System
// can be reused for another train: the busy-counter baseline is
// re-snapshotted (cpu.Busy is cumulative), user-task placement forgets the
// last run's kernel load, and the ledger, gauges, NIC, stack, disk and
// application state all start fresh.
func (s *System) resetRun() {
	s.genDone = false
	s.truncated = false
	s.runStart = s.Sim.Now()
	s.genEnd = 0
	s.ledger = Ledger{}
	for _, g := range s.gauges {
		g.reset()
	}
	if s.rss != nil {
		s.rss.reset()
	} else {
		s.NIC.reset()
	}
	s.stack.reset()
	s.Disk.reset()
	for _, a := range s.apps {
		a.reset()
	}
	s.tsStamped, s.tsErrSum, s.tsErrMax, s.tsTies = 0, 0, 0, 0
	s.Machine.RestartPlacement()
	ncpu := len(s.Machine.CPUs)
	if s.busyAtStart == nil {
		s.busyAtStart = make([][sim.NumPrio]sim.Time, ncpu)
		s.busyAtGenEnd = make([][sim.NumPrio]sim.Time, ncpu)
	}
	for i, cpu := range s.Machine.CPUs {
		for p := sim.Prio(0); p < sim.NumPrio; p++ {
			s.busyAtStart[i][p] = cpu.Busy(p)
			s.busyAtGenEnd[i][p] = 0
		}
	}
}

// run executes one measurement of the train src.
func (s *System) run(src Source) Stats {
	src.Reset()
	s.resetRun()
	s.running = true
	s.startHousekeeping()
	// The applications open their capture sessions and enter their first
	// read before generation starts (measurement cycle step 1, §3.4).
	for _, a := range s.apps {
		s.stack.appStart(a)
	}
	// A poll-mode stack spins up its PMD loops for the duration of the run.
	sp, _ := s.stack.(spinner)
	if sp != nil {
		sp.start()
	}

	s.src, s.sent = src, 0
	s.feed()

	// Advance in windows; stop once generation has ended and the system is
	// quiescent. The safety cap bounds runaway configurations (a fully
	// livelocked system drains slowly but the backlog is finite, so this
	// generously covers real runs).
	const window = 250 * sim.Millisecond
	limit := s.Sim.Now() + window
	for {
		s.Sim.RunUntil(limit)
		if s.genDone && s.quiescent() {
			break
		}
		if s.genDone && limit+window > s.genEnd+600*sim.Second {
			// Safety cap: a livelocked configuration would take longer to
			// drain than any real run. Mark the truncation and book the
			// packets still in flight instead of letting them drain (which
			// would misreport a stuck system as capturing) or silently
			// vanish.
			s.truncated = true
			break
		}
		limit += window
	}
	s.running = false
	if sp != nil {
		sp.stop(limit)
	}
	s.src = nil
	if s.truncated {
		s.recordRemnants()
		st := s.collectStats()
		// Flush the abandoned events after the books are closed, so the
		// simulator is clean for a potential next run.
		s.Sim.Run()
		return st
	}
	// Let any residual events (cancelled housekeeping re-arms) run out.
	s.Sim.Run()

	return s.collectStats()
}

// feed schedules the next packet of the source at its offset from the run
// start, or ends generation once the source is exhausted.
func (s *System) feed() {
	p, ok := s.src.Next()
	if !ok {
		s.genDone = true
		s.genEnd = s.Sim.Now()
		// CPU usage is reported over the generation window, like
		// cpusage bracketing the measurement (§5): snapshot the busy
		// counters the moment the last packet has arrived.
		for i, cpu := range s.Machine.CPUs {
			for p := sim.Prio(0); p < sim.NumPrio; p++ {
				s.busyAtGenEnd[i][p] = cpu.Busy(p) - s.busyAtStart[i][p]
			}
		}
		return
	}
	s.sent++
	s.next = p
	s.Sim.At(s.runStart+p.At, s.arrival)
}

// recordRemnants books every packet still in flight at truncation time
// under CauseAbandoned: packets in shared queues (NIC ring, in-interrupt,
// Linux backlog and softirq batch) are lost to every application, so they
// are weighted by the application count; packets in per-application
// buffers or unfinished read batches count once.
func (s *System) recordRemnants() {
	now := s.Sim.Now() - s.runStart
	napps := len(s.apps)

	sharedPkts := 0
	var sharedBytes uint64
	count := func(p kpkt) {
		sharedPkts++
		sharedBytes += uint64(len(p.data))
	}
	if s.rss != nil {
		p, b := s.rss.remnants()
		sharedPkts += p
		sharedBytes += b
	} else {
		if s.NIC.inIRQ {
			count(s.NIC.cur)
		}
		for _, p := range s.NIC.ring.items() {
			count(p)
		}
	}
	shared, perApp := s.stack.remnants()
	for _, p := range shared {
		count(p)
	}
	s.ledger.RecordN(CauseAbandoned, sharedPkts*napps, sharedBytes*uint64(napps), now)

	for _, pkts := range perApp {
		var bytes uint64
		for _, p := range pkts {
			bytes += uint64(p.caplen)
		}
		s.ledger.RecordN(CauseAbandoned, len(pkts), bytes, now)
	}
	for _, a := range s.apps {
		s.ledger.RecordN(CauseAbandoned, a.inflightPkts, a.inflightBytes, now)
	}
}

func (s *System) collectStats() Stats {
	st := Stats{Generated: s.sent, CPUCount: len(s.Machine.CPUs)}
	st.WallTime = s.genEnd - s.runStart
	st.BusyByCPU = append([][sim.NumPrio]sim.Time(nil), s.busyAtGenEnd...)
	for _, by := range st.BusyByCPU {
		for p := sim.Prio(0); p < sim.NumPrio; p++ {
			st.BusyByCls[p] += by[p]
			st.BusyTime += by[p]
		}
	}
	st.Ledger = s.ledger
	st.Truncated = s.truncated
	st.Gauges = make([]GaugeStat, len(s.gauges))
	for i, g := range s.gauges {
		st.Gauges[i] = GaugeStat{Name: g.Name, Capacity: g.Capacity, HighWater: g.HighWater, Episodes: g.Episodes}
	}
	for _, a := range s.apps {
		st.AppCaptured = append(st.AppCaptured, a.Captured)
	}
	if s.Policy.Enabled() {
		st.PolicyName = s.Policy.String()
		for _, a := range s.apps {
			st.AppShed = append(st.AppShed, a.Shed)
		}
	}
	if s.Policy.Enabled() || s.CountFlows {
		for _, a := range s.apps {
			st.AppFlows = append(st.AppFlows, uint64(len(a.flowsKept)))
		}
	}
	st.Stamped, st.TsErrSum, st.TsErrMax, st.TsTies = s.tsStamped, s.tsErrSum, s.tsErrMax, s.tsTies
	return st
}

// arrive hands the scheduled wire-complete frame, with its flow hash, to
// whichever NIC the system has, and schedules the next.
func (s *System) arrive() {
	if s.rss != nil {
		s.rss.Arrive(s.next.Data, s.next.Flow)
	} else {
		s.NIC.Arrive(s.next.Data, s.next.Flow)
	}
	s.feed()
}

// RingDelivered exposes the per-ring delivery counts of the RSS NIC (nil
// on legacy systems); RSS determinism tests compare these across runs.
func (s *System) RingDelivered() []uint64 {
	if s.rss == nil {
		return nil
	}
	return s.rss.RingDelivered()
}

// Done reports whether the generation phase of the current run has ended
// (profiling tools stop sampling at this point).
func (s *System) Done() bool { return s.genDone }
