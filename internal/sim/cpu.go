package sim

import "fmt"

// Prio is a scheduling priority class. Lower values preempt higher values.
// The classes mirror the execution contexts relevant to 2005-era capture
// stacks: hardware interrupts beat soft interrupts beat kernel (syscall)
// work beats user code.
type Prio int

const (
	PrioHardIRQ Prio = iota
	PrioSoftIRQ
	PrioKernel
	PrioUser
	NumPrio
)

// String returns the cpusage-style state name for the priority class.
func (p Prio) String() string {
	switch p {
	case PrioHardIRQ:
		return "intr"
	case PrioSoftIRQ:
		return "softintr"
	case PrioKernel:
		return "sys"
	case PrioUser:
		return "user"
	default:
		return fmt.Sprintf("prio(%d)", int(p))
	}
}

// Task is a unit of work executed on a CPU.
//
// The cost of a task has two components:
//   - FixedNS: compute-bound nanoseconds at the CPU's nominal speed.
//   - MemBytes × MemNsPerByte: memory-bound nanoseconds, subject to the
//     machine's dynamic memory-contention multiplier (shared front-side bus
//     on the Xeon vs independent memory controllers on the Opteron).
//
// OnDone runs when the task completes; model code chains sequential
// activities (an application's read loop, a softirq drain, ...) by
// submitting the next task from OnDone.
type Task struct {
	Name         string
	Prio         Prio
	FixedNS      float64
	MemBytes     float64
	MemNsPerByte float64

	OnDone func()

	// remaining tracks the unfinished fraction after a preemption.
	remaining float64 // 0 => fresh task (fraction 1.0)
	started   Time
	duration  Time
	doneRef   EventRef
}

func (t *Task) fraction() float64 {
	if t.remaining == 0 {
		return 1.0
	}
	return t.remaining
}

// Machine is a set of CPUs sharing a memory system. It owns the dynamic
// cost multipliers (memory-bus contention, hyperthreading slowdown) and the
// user-task placement policy.
type Machine struct {
	Sim  *Sim
	CPUs []*CPU

	// MemContention multiplies MemNsPerByte of a task while at least one
	// *other* CPU is also executing a memory-active task. 1.0 disables the
	// effect (point-to-point memory, AMD); >1 models a shared front-side
	// bus (Intel).
	MemContention float64

	// HTSlowdown multiplies all costs of a task while its hyperthread
	// sibling CPU is busy. 1.0 when hyperthreading is off or the CPU has a
	// dedicated core.
	HTSlowdown float64

	// reserved marks CPUs excluded from SubmitUser placement: a poll-mode
	// driver pins a busy-spin loop there, so a user task placed on one
	// would starve behind the spinning forever. unreserved caches the
	// placement candidates so the SubmitUser hot path stays allocation-free.
	reserved   []bool
	unreserved []*CPU

	// placeFrom is when SubmitUser's kernel-load history starts (see
	// RestartPlacement).
	placeFrom Time
}

// Reserve dedicates CPU id to pinned kernel work (a poll-mode driver
// core): SubmitUser will no longer place user tasks there. If every CPU
// ends up reserved, SubmitUser falls back to considering all of them —
// the caller is expected to leave at least one CPU for user work.
func (m *Machine) Reserve(id int) {
	if m.reserved == nil {
		m.reserved = make([]bool, len(m.CPUs))
	}
	m.reserved[id] = true
	m.unreserved = m.unreserved[:0]
	for i, c := range m.CPUs {
		if !m.reserved[i] {
			m.unreserved = append(m.unreserved, c)
		}
	}
	if len(m.unreserved) == 0 {
		m.unreserved = append(m.unreserved, m.CPUs...)
	}
}

// NewMachine creates a machine with n CPUs. If hyperthreading is true the
// CPUs are paired: CPU 2k and 2k+1 share physical core k.
func NewMachine(s *Sim, n int, hyperthreading bool) *Machine {
	m := &Machine{Sim: s, MemContention: 1.0, HTSlowdown: 1.0}
	for i := 0; i < n; i++ {
		core := i
		if hyperthreading {
			core = i / 2
		}
		m.CPUs = append(m.CPUs, &CPU{machine: m, ID: i, Core: core})
	}
	return m
}

// taskq is a head-indexed FIFO of tasks. Pops advance the head instead of
// shifting the slice, and a front push reuses the popped gap, so the
// per-dispatch memmove and the per-preemption prepend allocation of a plain
// slice queue disappear. Popped slots keep stale pointers until overwritten
// or the queue drains; the buffer is as small as the deepest backlog, so
// the pinned tail is negligible.
type taskq struct {
	buf  []*Task
	head int
}

func (q *taskq) len() int { return len(q.buf) - q.head }

func (q *taskq) pushBack(t *Task) { q.buf = append(q.buf, t) }

func (q *taskq) pushFront(t *Task) {
	if q.head > 0 {
		q.head--
		q.buf[q.head] = t
		return
	}
	q.buf = append(q.buf, nil)
	copy(q.buf[1:], q.buf)
	q.buf[0] = t
}

func (q *taskq) popFront() *Task {
	t := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return t
}

// CPU is a single (possibly logical) processor with strict-priority,
// preemptive FIFO scheduling and busy-time accounting per priority class.
type CPU struct {
	machine *Machine
	ID      int
	Core    int

	queues  [NumPrio]taskq
	current *Task
	spin    *Task // the task Spin started: it runs until EndSpin

	busy     [NumPrio]Time // completed busy time per class
	kernFrom Time          // kernel busy time before RestartPlacement
}

// Submit enqueues t on this CPU and dispatches or preempts as needed.
func (c *CPU) Submit(t *Task) {
	if t.OnDone == nil {
		panic("sim: task without OnDone")
	}
	c.queues[t.Prio].pushBack(t)
	if c.current == nil {
		c.dispatch()
		return
	}
	if t.Prio < c.current.Prio {
		c.preempt()
		c.dispatch()
	}
}

// SubmitFront enqueues t at the head of its priority queue: the next
// dispatch of that class picks it before anything that was already waiting.
// This models a process that continues running within its scheduler
// timeslice instead of yielding (Linux 2.6 O(1) scheduler behaviour under
// streaming load).
func (c *CPU) SubmitFront(t *Task) {
	if t.OnDone == nil {
		panic("sim: task without OnDone")
	}
	c.queues[t.Prio].pushFront(t)
	if c.current == nil {
		c.dispatch()
		return
	}
	if t.Prio < c.current.Prio {
		c.preempt()
		c.dispatch()
	}
}

// preempt stops the running task, accounts the elapsed time, and requeues
// the remainder at the front of its priority queue.
func (c *CPU) preempt() {
	cur := c.current
	if cur == c.spin {
		// Nothing models what a spin does when it is interrupted.
		panic(fmt.Sprintf("sim: higher-class task reached cpu%d while it spins in %s", c.ID, cur.Prio))
	}
	elapsed := c.machine.Sim.Now() - cur.started
	c.busy[cur.Prio] += elapsed
	frac := 0.0
	if cur.duration > 0 {
		frac = float64(elapsed) / float64(cur.duration)
	}
	rem := cur.fraction() * (1 - frac)
	// remaining == 0 denotes a fresh task (zero value); a task preempted
	// exactly at its completion instant must keep an epsilon so it is
	// redispatched as (effectively) finished rather than restarted.
	if rem <= 0 {
		rem = 1e-12
	}
	cur.remaining = rem
	cur.doneRef.Cancel()
	c.current = nil
	// Requeue at the front: a preempted task resumes before tasks that
	// arrived while it was running.
	c.queues[cur.Prio].pushFront(cur)
}

// dispatch starts the highest-priority pending task, if any.
func (c *CPU) dispatch() {
	if c.current != nil {
		return
	}
	for p := Prio(0); p < NumPrio; p++ {
		if c.queues[p].len() == 0 {
			continue
		}
		c.start(c.queues[p].popFront())
		return
	}
}

// Cost returns how long t would run if c started it now: its fixed and
// memory cost under the current memory contention and hyperthread
// sibling state. It is the duration start gives a task.
func (c *CPU) Cost(t *Task) Time {
	memNs := t.MemBytes * t.MemNsPerByte
	if memNs > 0 && c.machine.memActiveElsewhere(c) {
		memNs *= c.machine.MemContention
	}
	ns := (t.FixedNS + memNs) * t.fraction()
	if c.machine.siblingBusy(c) {
		ns *= c.machine.HTSlowdown
	}
	if ns < 0 {
		ns = 0
	}
	return Time(ns + 0.5)
}

// start computes the task's duration under the current dynamic conditions
// and schedules its completion. A spin gets no completion event.
func (c *CPU) start(t *Task) {
	t.started = c.machine.Sim.Now()
	c.current = t
	if t == c.spin {
		return
	}
	t.duration = c.Cost(t)
	t.doneRef = c.machine.Sim.afterTask(t.duration, c, t)
}

// Spin makes t the CPU's current task with no completion event: an
// open-ended busy loop, like a poll-mode driver's. The CPU stays busy in
// class t.Prio until EndSpin, work of that or a lower class queues behind
// it, and starting it preempts lower-class work exactly as Submit does. A
// spin must start at once, and a higher-class task must never reach a
// spinning CPU: nothing in the model does either, so both panic.
func (c *CPU) Spin(t *Task) {
	c.spin = t
	c.Submit(t)
	if c.current != t {
		panic(fmt.Sprintf("sim: spin queued behind %s work on cpu%d", c.current.Prio, c.ID))
	}
}

// EndSpin stops the current spin at the current instant and books its
// elapsed time. Like a completion, it runs the spin's OnDone before it
// dispatches queued work.
func (c *CPU) EndSpin() {
	t := c.current
	if t == nil || t != c.spin {
		panic(fmt.Sprintf("sim: EndSpin on cpu%d, which is not spinning", c.ID))
	}
	c.busy[t.Prio] += c.machine.Sim.Now() - t.started
	c.current, c.spin = nil, nil
	t.OnDone()
	c.dispatch()
}

func (c *CPU) complete(t *Task) {
	if c.current != t {
		return // stale completion (preempted); defensive, Cancel should prevent this
	}
	c.busy[t.Prio] += t.duration
	c.current = nil
	// Run the completion callback before dispatching the next task so the
	// callback may submit follow-up work that competes fairly for the CPU.
	t.OnDone()
	c.dispatch()
}

// Busy returns the accumulated busy time of class p, including the elapsed
// part of a currently running task.
func (c *CPU) Busy(p Prio) Time {
	b := c.busy[p]
	if c.current != nil && c.current.Prio == p {
		b += c.machine.Sim.Now() - c.current.started
	}
	return b
}

// BusyTotal returns accumulated busy time across all classes.
func (c *CPU) BusyTotal() Time {
	var b Time
	for p := Prio(0); p < NumPrio; p++ {
		b += c.Busy(p)
	}
	return b
}

// Idle reports whether the CPU has neither a running task nor queued work.
func (c *CPU) Idle() bool {
	if c.current != nil {
		return false
	}
	for p := Prio(0); p < NumPrio; p++ {
		if c.queues[p].len() > 0 {
			return false
		}
	}
	return true
}

// QueueLen returns the number of queued (not running) tasks of class p.
func (c *CPU) QueueLen(p Prio) int { return c.queues[p].len() }

// memActiveElsewhere reports whether any other CPU is running a
// memory-active task right now.
func (m *Machine) memActiveElsewhere(self *CPU) bool {
	if m.MemContention <= 1.0 {
		return false
	}
	for _, c := range m.CPUs {
		if c != self && c.current != nil && c.current.MemBytes > 0 {
			return true
		}
	}
	return false
}

// siblingBusy reports whether the hyperthread sibling of self is executing.
func (m *Machine) siblingBusy(self *CPU) bool {
	if m.HTSlowdown <= 1.0 {
		return false
	}
	for _, c := range m.CPUs {
		if c != self && c.Core == self.Core && c.current != nil {
			return true
		}
	}
	return false
}

// SubmitUser places a user task where it is projected to finish earliest:
// the pending work on each CPU plus the task itself, stretched by the
// share of the CPU that kernel-side work (interrupts, softirqs) has been
// consuming — a scheduler quickly learns that the CPU taking the
// interrupts runs user work slowly. Ties are broken by accumulated kernel
// busy time, then by CPU ID for determinism. Both histories start at the
// last RestartPlacement, or at time zero.
func (m *Machine) SubmitUser(t *Task) *CPU {
	cands := m.CPUs
	if len(m.unreserved) > 0 {
		cands = m.unreserved
	}
	best := cands[0]
	bestScore := m.finishScore(best, t)
	bestKern := best.kernelBusy()
	for _, c := range cands[1:] {
		s, k := m.finishScore(c, t), c.kernelBusy()
		if s < bestScore || (s == bestScore && k < bestKern) {
			best, bestScore, bestKern = c, s, k
		}
	}
	best.Submit(t)
	return best
}

// RestartPlacement starts SubmitUser's kernel-load history afresh, so a
// machine reused for another run places user work as a new one would.
func (m *Machine) RestartPlacement() {
	m.placeFrom = m.Sim.Now()
	for _, c := range m.CPUs {
		c.kernFrom = kernelBusyTotal(c)
	}
}

// finishScore projects when t would complete on c.
func (m *Machine) finishScore(c *CPU, t *Task) float64 {
	avail := 1.0
	if now := m.Sim.Now() - m.placeFrom; now > 0 {
		kfrac := float64(c.kernelBusy()) / float64(now)
		avail = 1 - kfrac
		if avail < 0.1 {
			avail = 0.1
		}
	}
	return (pendingNS(c) + t.estNS()) / avail
}

// estNS is the task's nominal duration ignoring dynamic multipliers.
func (t *Task) estNS() float64 {
	return (t.FixedNS + t.MemBytes*t.MemNsPerByte) * t.fraction()
}

// pendingNS estimates the work already committed to a CPU.
func pendingNS(c *CPU) float64 {
	var ns float64
	for p := Prio(0); p < NumPrio; p++ {
		q := &c.queues[p]
		for _, t := range q.buf[q.head:] {
			ns += t.estNS()
		}
	}
	if c.current != nil {
		ns += c.current.estNS()
	}
	return ns
}

func kernelBusyTotal(c *CPU) Time {
	return c.Busy(PrioHardIRQ) + c.Busy(PrioSoftIRQ) + c.Busy(PrioKernel)
}

// kernelBusy is c's kernel busy time since the last RestartPlacement.
func (c *CPU) kernelBusy() Time { return kernelBusyTotal(c) - c.kernFrom }

// Running returns the currently executing task, or nil.
func (c *CPU) Running() *Task { return c.current }
