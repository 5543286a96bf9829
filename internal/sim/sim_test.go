package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %v, want 30", s.Now())
	}
}

func TestEventFIFOTieBreak(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie break not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	ref := s.At(10, func() { fired = true })
	ref.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", s.Pending())
	}
}

// Regression: emptying a bucket that holds only cancelled events must not
// move the queue's base time (last) past the clock, because no event fired
// and the clock stayed behind. The schedule at 20 below, between the clock
// and the cancelled event at 50, must still fire, at 20.
func TestCancelledSlotDoesNotAdvanceCursor(t *testing.T) {
	s := New()
	s.At(50, func() { t.Fatal("cancelled event fired") }).Cancel()
	s.Run()
	if s.Now() != 0 {
		t.Fatalf("Now = %v after cancelled-only run, want 0", s.Now())
	}
	fired := false
	s.At(20, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("event scheduled after a cancelled-only run never fired")
	}
	if s.Now() != 20 {
		t.Fatalf("Now = %v, want 20", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", s.Pending())
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	s := New()
	var got []int
	s.At(10, func() { got = append(got, 1) })
	s.At(100, func() { got = append(got, 2) })
	s.RunUntil(50)
	if len(got) != 1 {
		t.Fatalf("got %v, want just the first event", got)
	}
	s.Run()
	if len(got) != 2 {
		t.Fatalf("got %v after full run", got)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling into the past")
		}
	}()
	s.At(5, func() {})
}

func TestAdvanceTo(t *testing.T) {
	s := New()
	s.AdvanceTo(100)
	if s.Now() != 100 {
		t.Fatalf("Now = %v", s.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic skipping pending events")
		}
	}()
	s.At(150, func() {})
	s.AdvanceTo(200)
}

// Property: events fire in nondecreasing time order regardless of the
// insertion order of their timestamps.
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		s := New()
		var fired []Time
		for _, tm := range times {
			at := Time(tm)
			s.At(at, func() { fired = append(fired, at) })
		}
		s.Run()
		if len(fired) != len(times) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		// Same multiset.
		want := make([]Time, len(times))
		for i, tm := range times {
			want[i] = Time(tm)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCPUSequentialExecution(t *testing.T) {
	s := New()
	m := NewMachine(s, 1, false)
	c := m.CPUs[0]
	var done []string
	c.Submit(&Task{Name: "a", Prio: PrioUser, FixedNS: 100, OnDone: func() { done = append(done, "a") }})
	c.Submit(&Task{Name: "b", Prio: PrioUser, FixedNS: 50, OnDone: func() { done = append(done, "b") }})
	s.Run()
	if len(done) != 2 || done[0] != "a" || done[1] != "b" {
		t.Fatalf("done = %v", done)
	}
	if s.Now() != 150 {
		t.Fatalf("Now = %v, want 150", s.Now())
	}
	if got := c.Busy(PrioUser); got != 150 {
		t.Fatalf("busy = %v, want 150", got)
	}
}

func TestCPUPriorityPreemption(t *testing.T) {
	s := New()
	m := NewMachine(s, 1, false)
	c := m.CPUs[0]
	var order []string
	var userDone Time
	var irqDone Time
	c.Submit(&Task{Name: "user", Prio: PrioUser, FixedNS: 1000, OnDone: func() {
		order = append(order, "user")
		userDone = s.Now()
	}})
	s.At(200, func() {
		c.Submit(&Task{Name: "irq", Prio: PrioHardIRQ, FixedNS: 300, OnDone: func() {
			order = append(order, "irq")
			irqDone = s.Now()
		}})
	})
	s.Run()
	if len(order) != 2 || order[0] != "irq" || order[1] != "user" {
		t.Fatalf("order = %v, want [irq user]", order)
	}
	if irqDone != 500 {
		t.Fatalf("irq done at %v, want 500", irqDone)
	}
	// user ran 200ns, was preempted for 300ns, then finished its remaining 800ns.
	if userDone != 1300 {
		t.Fatalf("user done at %v, want 1300", userDone)
	}
	if got := c.Busy(PrioHardIRQ); got != 300 {
		t.Fatalf("irq busy = %v", got)
	}
	if got := c.Busy(PrioUser); got != 1000 {
		t.Fatalf("user busy = %v", got)
	}
}

func TestPreemptedTaskResumesBeforeNewArrivals(t *testing.T) {
	s := New()
	m := NewMachine(s, 1, false)
	c := m.CPUs[0]
	var order []string
	c.Submit(&Task{Name: "first", Prio: PrioUser, FixedNS: 1000, OnDone: func() { order = append(order, "first") }})
	s.At(100, func() {
		// Arrives during first's execution; must run after first completes.
		c.Submit(&Task{Name: "second", Prio: PrioUser, FixedNS: 10, OnDone: func() { order = append(order, "second") }})
		c.Submit(&Task{Name: "irq", Prio: PrioHardIRQ, FixedNS: 10, OnDone: func() { order = append(order, "irq") }})
	})
	s.Run()
	want := []string{"irq", "first", "second"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMemoryContention(t *testing.T) {
	s := New()
	m := NewMachine(s, 2, false)
	m.MemContention = 2.0
	var d0, d1 Time
	m.CPUs[0].Submit(&Task{Name: "m0", Prio: PrioUser, MemBytes: 1000, MemNsPerByte: 1, OnDone: func() { d0 = s.Now() }})
	m.CPUs[1].Submit(&Task{Name: "m1", Prio: PrioUser, MemBytes: 1000, MemNsPerByte: 1, OnDone: func() { d1 = s.Now() }})
	s.Run()
	// Contention is evaluated at dispatch time: the first task starts alone
	// (1000ns), the second observes the first and pays the multiplier.
	if d0 != 1000 || d1 != 2000 {
		t.Fatalf("durations = %v, %v; want 1000 and 2000", d0, d1)
	}
}

func TestNoContentionWhenAlone(t *testing.T) {
	s := New()
	m := NewMachine(s, 2, false)
	m.MemContention = 2.0
	var d0 Time
	m.CPUs[0].Submit(&Task{Name: "m0", Prio: PrioUser, MemBytes: 1000, MemNsPerByte: 1, OnDone: func() { d0 = s.Now() }})
	s.Run()
	if d0 != 1000 {
		t.Fatalf("duration = %v, want 1000", d0)
	}
}

func TestHyperthreadingSlowdown(t *testing.T) {
	s := New()
	m := NewMachine(s, 2, true) // 2 logical CPUs, 1 core
	m.HTSlowdown = 1.5
	var d0, d1 Time
	m.CPUs[0].Submit(&Task{Name: "a", Prio: PrioUser, FixedNS: 1000, OnDone: func() { d0 = s.Now() }})
	m.CPUs[1].Submit(&Task{Name: "b", Prio: PrioUser, FixedNS: 1000, OnDone: func() { d1 = s.Now() }})
	s.Run()
	// HT slowdown is evaluated at dispatch: the first task starts with an
	// idle sibling, the second observes a busy sibling.
	if d0 != 1000 || d1 != 1500 {
		t.Fatalf("durations = %v, %v; want 1000 and 1500", d0, d1)
	}
}

func TestSubmitUserPicksIdleCPU(t *testing.T) {
	s := New()
	m := NewMachine(s, 2, false)
	var cpus []int
	mk := func() *Task {
		return &Task{Name: "u", Prio: PrioUser, FixedNS: 1000, OnDone: func() {}}
	}
	c := m.SubmitUser(mk())
	cpus = append(cpus, c.ID)
	c = m.SubmitUser(mk())
	cpus = append(cpus, c.ID)
	if cpus[0] != 0 || cpus[1] != 1 {
		t.Fatalf("placement = %v, want [0 1]", cpus)
	}
}

func TestSubmitUserAvoidsIRQSaturatedCPU(t *testing.T) {
	s := New()
	m := NewMachine(s, 2, false)
	// Saturate CPU0 with interrupt work.
	m.CPUs[0].Submit(&Task{Name: "irq", Prio: PrioHardIRQ, FixedNS: 10000, OnDone: func() {}})
	c := m.SubmitUser(&Task{Name: "u", Prio: PrioUser, FixedNS: 10, OnDone: func() {}})
	if c.ID != 1 {
		t.Fatalf("user task placed on CPU %d, want 1", c.ID)
	}
	s.Run()
}

// Property: total busy time equals the sum of all task costs when there is
// no contention, regardless of submission order and priorities.
func TestBusyAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		m := NewMachine(s, 1, false)
		c := m.CPUs[0]
		n := 3 + rng.Intn(20)
		var total float64
		for i := 0; i < n; i++ {
			cost := float64(1 + rng.Intn(500))
			total += cost
			prio := Prio(rng.Intn(int(NumPrio)))
			at := Time(rng.Intn(2000))
			s.At(at, func() {
				c.Submit(&Task{Name: "t", Prio: prio, FixedNS: cost, OnDone: func() {}})
			})
		}
		s.Run()
		var busy Time
		for p := Prio(0); p < NumPrio; p++ {
			busy += c.Busy(p)
		}
		diff := float64(busy) - total
		if diff < 0 {
			diff = -diff
		}
		// Rounding on each preemption boundary may cost <1ns, and a task may
		// be preempted once per higher-priority arrival.
		return diff <= float64(n*n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIdle(t *testing.T) {
	s := New()
	m := NewMachine(s, 1, false)
	c := m.CPUs[0]
	if !c.Idle() {
		t.Fatal("fresh CPU should be idle")
	}
	c.Submit(&Task{Name: "t", Prio: PrioUser, FixedNS: 10, OnDone: func() {}})
	if c.Idle() {
		t.Fatal("CPU with running task should not be idle")
	}
	s.Run()
	if !c.Idle() {
		t.Fatal("CPU should be idle after run")
	}
}

func TestSubmitFrontRunsBeforeQueued(t *testing.T) {
	s := New()
	m := NewMachine(s, 1, false)
	c := m.CPUs[0]
	var order []string
	c.Submit(&Task{Name: "running", Prio: PrioUser, FixedNS: 100, OnDone: func() { order = append(order, "running") }})
	c.Submit(&Task{Name: "queued", Prio: PrioUser, FixedNS: 10, OnDone: func() { order = append(order, "queued") }})
	c.SubmitFront(&Task{Name: "front", Prio: PrioUser, FixedNS: 10, OnDone: func() { order = append(order, "front") }})
	s.Run()
	want := []string{"running", "front", "queued"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSubmitUserAvoidsKernelHeavyCPU(t *testing.T) {
	// CPU0 has spent most of the elapsed time in interrupt work; even when
	// both run queues look empty, new user work must prefer CPU1.
	s := New()
	m := NewMachine(s, 2, false)
	m.CPUs[0].Submit(&Task{Name: "irq", Prio: PrioHardIRQ, FixedNS: 9000, OnDone: func() {}})
	m.CPUs[1].Submit(&Task{Name: "u", Prio: PrioUser, FixedNS: 1000, OnDone: func() {}})
	s.Run() // now: CPU0 kernel-busy 9µs of 9µs elapsed, CPU1 user 1µs
	c := m.SubmitUser(&Task{Name: "new", Prio: PrioUser, FixedNS: 100, OnDone: func() {}})
	if c.ID != 1 {
		t.Fatalf("user task placed on kernel-heavy CPU %d, want 1", c.ID)
	}
	s.Run()
}

func TestSubmitUserBalancesByDuration(t *testing.T) {
	// A CPU with one long queued task must lose against a CPU with several
	// short ones: placement is by projected nanoseconds, not task count.
	s := New()
	m := NewMachine(s, 2, false)
	m.CPUs[0].Submit(&Task{Name: "long", Prio: PrioUser, FixedNS: 100000, OnDone: func() {}})
	for i := 0; i < 3; i++ {
		m.CPUs[1].Submit(&Task{Name: "short", Prio: PrioUser, FixedNS: 100, OnDone: func() {}})
	}
	c := m.SubmitUser(&Task{Name: "new", Prio: PrioUser, FixedNS: 100, OnDone: func() {}})
	if c.ID != 1 {
		t.Fatalf("placed on CPU %d, want 1 (3×100ns beats 1×100µs)", c.ID)
	}
	s.Run()
}

func TestPreemptAtCompletionInstantDoesNotRerun(t *testing.T) {
	// A task preempted exactly when it would have completed must not be
	// re-executed from scratch (the remaining-fraction epsilon rule).
	s := New()
	m := NewMachine(s, 1, false)
	c := m.CPUs[0]
	c.Submit(&Task{Name: "victim", Prio: PrioUser, FixedNS: 100, OnDone: func() {}})
	s.At(100, func() {
		c.Submit(&Task{Name: "irq", Prio: PrioHardIRQ, FixedNS: 50, OnDone: func() {}})
	})
	s.Run()
	total := c.Busy(PrioUser) + c.Busy(PrioHardIRQ)
	if total > 151 {
		t.Fatalf("busy = %v, want ≈150 (no double execution)", total)
	}
}

// TestCompletedTaskResubmits checks the rule that lets a site own its
// task: once completed, a task that was preempted on its way may be
// submitted again, from its own OnDone, and runs whole.
func TestCompletedTaskResubmits(t *testing.T) {
	s := New()
	m := NewMachine(s, 1, false)
	c := m.CPUs[0]
	var ends []Time
	task := &Task{Name: "reused", Prio: PrioUser, FixedNS: 100}
	task.OnDone = func() {
		ends = append(ends, s.Now())
		if len(ends) == 1 {
			c.Submit(task)
		}
	}
	c.Submit(task)
	s.At(40, func() {
		c.Submit(&Task{Name: "irq", Prio: PrioHardIRQ, FixedNS: 10, OnDone: func() {}})
	})
	s.Run()
	// 40 ns, the irq's 10, the remaining 60; then a whole 100 again.
	if len(ends) != 2 || ends[0] != 110 || ends[1] != 210 {
		t.Fatalf("completions at %v, want [110 210]", ends)
	}
}

func TestStaleCancelIsNoOp(t *testing.T) {
	// After an event fires, its struct is recycled for the next scheduled
	// event. A Cancel through the old ref must not touch the new event.
	s := New()
	ref := s.At(10, func() {})
	s.Run()
	fired := false
	s.At(20, func() { fired = true }) // reuses the recycled struct
	ref.Cancel()                      // stale: generation mismatch
	s.Run()
	if !fired {
		t.Fatal("stale Cancel killed a recycled event")
	}
}

func TestCancelledEventRecycled(t *testing.T) {
	// Cancelled events are recycled on pop with a clean cancel flag.
	s := New()
	s.At(5, func() {}).Cancel()
	s.Run()
	fired := false
	s.At(10, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("event reusing a cancelled struct did not fire")
	}
}

func TestEventQueueZeroAllocSteadyState(t *testing.T) {
	// The scheduling hot path must not allocate once the pool has reached
	// its high-water mark: events come off the free list, the buckets are
	// at capacity, and EventRefs live on the stack.
	s := New()
	var tick func()
	tick = func() {
		s.After(100, tick)
		s.After(250, func() {}).Cancel() // exercise the cancel path too
	}
	for i := 0; i < 32; i++ {
		s.At(Time(i), tick)
	}
	// Warm up the pool and the buckets. With the clock below 2^k, an event
	// at or past 2^k (and below 2^(k+1)) files into bucket k+1, so bucket
	// k+1 is first used, and grows, as the clock nears 2^k. The warm-up
	// crosses 2^18 = 262,144 ns, and the measured runs end before 2^19, so
	// they reach no new bucket.
	s.RunUntil(s.Now() + 300_000)
	allocs := testing.AllocsPerRun(10, func() {
		s.RunUntil(s.Now() + 10_000)
	})
	if allocs != 0 {
		t.Fatalf("steady-state scheduling allocates %.1f times per run, want 0", allocs)
	}
}

func BenchmarkEventQueue(b *testing.B) {
	// Steady-state schedule/fire throughput with 64 events in flight.
	s := New()
	var tick func()
	tick = func() { s.After(100, tick) }
	for i := 0; i < 64; i++ {
		s.At(Time(i), tick)
	}
	s.RunUntil(s.Now() + 1000) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunUntil(s.Now() + 100) // fires ~64 events per iteration
	}
}

func TestSubmitUserAvoidsReservedCPU(t *testing.T) {
	s := New()
	m := NewMachine(s, 3, false)
	m.Reserve(0)
	m.Reserve(1)
	mk := func() *Task {
		return &Task{Name: "u", Prio: PrioUser, FixedNS: 1000, OnDone: func() {}}
	}
	for i := 0; i < 4; i++ {
		if c := m.SubmitUser(mk()); c.ID != 2 {
			t.Fatalf("user task %d placed on reserved CPU %d, want 2", i, c.ID)
		}
	}
}

func TestSubmitUserAllReservedFallsBack(t *testing.T) {
	s := New()
	m := NewMachine(s, 2, false)
	m.Reserve(0)
	m.Reserve(1)
	// Every CPU reserved: placement falls back to the full set rather
	// than deadlocking.
	if c := m.SubmitUser(&Task{Name: "u", Prio: PrioUser, FixedNS: 10, OnDone: func() {}}); c == nil {
		t.Fatal("no CPU chosen")
	}
}

// spinTask is an open-ended softirq spin that records when its OnDone ran.
func spinTask(s *Sim, ended *[]Time) *Task {
	return &Task{Name: "spin", Prio: PrioSoftIRQ, FixedNS: 4000, OnDone: func() {
		*ended = append(*ended, s.Now())
	}}
}

// TestSpinBusyIsElapsed: a spin schedules nothing, and Busy mid-spin and
// after EndSpin is exactly the elapsed time.
func TestSpinBusyIsElapsed(t *testing.T) {
	s := New()
	c := NewMachine(s, 1, false).CPUs[0]
	var ended []Time
	s.At(100, func() { c.Spin(spinTask(s, &ended)) })
	var mid Time
	s.At(12345, func() { mid = c.Busy(PrioSoftIRQ) })
	s.At(20000, c.EndSpin)
	s.RunUntil(15000)
	if s.Pending() != 1 {
		t.Fatalf("pending = %d mid-spin, want only the EndSpin event", s.Pending())
	}
	s.Run()
	if mid != 12245 {
		t.Fatalf("busy mid-spin = %v, want 12245", mid)
	}
	if got := c.Busy(PrioSoftIRQ); got != 19900 {
		t.Fatalf("busy after EndSpin = %v, want 19900", got)
	}
	if len(ended) != 1 || ended[0] != 20000 {
		t.Fatalf("OnDone ran at %v, want once at 20000", ended)
	}
	if !c.Idle() || s.Now() != 20000 {
		t.Fatalf("idle=%v now=%v after the spin, want idle at 20000", c.Idle(), s.Now())
	}
}

// TestSpinQueuesLowerClasses: kernel and user work submitted to a
// spinning CPU waits, and runs only once the spin ends.
func TestSpinQueuesLowerClasses(t *testing.T) {
	s := New()
	c := NewMachine(s, 1, false).CPUs[0]
	var ended []Time
	var order []string
	c.Spin(spinTask(s, &ended))
	c.Submit(&Task{Name: "k", Prio: PrioKernel, FixedNS: 10, OnDone: func() { order = append(order, "k") }})
	c.Submit(&Task{Name: "u", Prio: PrioUser, FixedNS: 10, OnDone: func() { order = append(order, "u") }})
	s.At(1000, func() {
		if c.QueueLen(PrioKernel) != 1 || c.QueueLen(PrioUser) != 1 || len(order) != 0 {
			t.Errorf("lower classes ran during the spin: %v", order)
		}
		c.EndSpin()
	})
	s.Run()
	if len(order) != 2 || order[0] != "k" || order[1] != "u" || s.Now() != 1020 {
		t.Fatalf("order = %v at %v, want [k u] done at 1020", order, s.Now())
	}
	if c.Busy(PrioSoftIRQ) != 1000 || c.Busy(PrioKernel) != 10 || c.Busy(PrioUser) != 10 {
		t.Fatalf("busy softirq/kernel/user = %v/%v/%v", c.Busy(PrioSoftIRQ), c.Busy(PrioKernel), c.Busy(PrioUser))
	}
}

// TestSpinPreemptsLikeSubmit: starting a spin over a running user task
// preempts it exactly as a softirq Submit does — the task keeps its
// unfinished fraction, goes back to the front of its queue, and finishes
// at the same instant under either.
func TestSpinPreemptsLikeSubmit(t *testing.T) {
	finish := func(spin bool) (Time, Time) {
		s := New()
		c := NewMachine(s, 1, false).CPUs[0]
		var userDone Time
		c.Submit(&Task{Name: "u", Prio: PrioUser, FixedNS: 1000, OnDone: func() { userDone = s.Now() }})
		c.Submit(&Task{Name: "u2", Prio: PrioUser, FixedNS: 1, OnDone: func() {}})
		s.At(300, func() {
			if spin {
				var ended []Time
				c.Spin(spinTask(s, &ended))
				s.At(700, c.EndSpin)
				return
			}
			c.Submit(&Task{Name: "irq", Prio: PrioSoftIRQ, FixedNS: 400, OnDone: func() {}})
		})
		s.Run()
		return userDone, c.Busy(PrioUser)
	}
	sd, sb := finish(false)
	pd, pb := finish(true)
	if sd != 1400 || pd != sd || pb != sb {
		t.Fatalf("user done at %v (spin) vs %v (submit), busy %v vs %v; want both done at 1400", pd, sd, pb, sb)
	}
}

// TestEndSpinRunsOnDoneFirst: like a completion, EndSpin runs the spin's
// OnDone before dispatching queued work, so work the OnDone submits
// competes fairly with what was queued.
func TestEndSpinRunsOnDoneFirst(t *testing.T) {
	s := New()
	c := NewMachine(s, 1, false).CPUs[0]
	var order []string
	c.Spin(&Task{Name: "spin", Prio: PrioSoftIRQ, OnDone: func() {
		order = append(order, "spin-done")
		c.Submit(&Task{Name: "burst", Prio: PrioSoftIRQ, FixedNS: 10, OnDone: func() { order = append(order, "burst") }})
	}})
	c.Submit(&Task{Name: "hk", Prio: PrioKernel, FixedNS: 10, OnDone: func() { order = append(order, "hk") }})
	s.At(50, c.EndSpin)
	s.Run()
	want := []string{"spin-done", "burst", "hk"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestSpinRejectsHigherClass: nothing in the model interrupts a spin, so
// a higher-class task reaching a spinning CPU, a spin that cannot start
// at once, and EndSpin without a spin all panic.
func TestSpinRejectsHigherClass(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	var ended []Time
	s := New()
	c := NewMachine(s, 1, false).CPUs[0]
	c.Spin(spinTask(s, &ended))
	mustPanic("hardirq on a spinning cpu", func() {
		c.Submit(&Task{Name: "irq", Prio: PrioHardIRQ, FixedNS: 10, OnDone: func() {}})
	})

	s = New()
	c = NewMachine(s, 1, false).CPUs[0]
	c.Submit(&Task{Name: "irq", Prio: PrioHardIRQ, FixedNS: 10, OnDone: func() {}})
	mustPanic("spin behind higher-class work", func() { c.Spin(spinTask(s, &ended)) })

	mustPanic("EndSpin without a spin", NewMachine(New(), 1, false).CPUs[0].EndSpin)
}

// TestCostMatchesStart: Cost is the duration start gives a task, including
// the hyperthread slowdown while the sibling is busy.
func TestCostMatchesStart(t *testing.T) {
	s := New()
	m := NewMachine(s, 2, true)
	m.HTSlowdown = 1.25
	grain := &Task{Name: "g", Prio: PrioSoftIRQ, FixedNS: 4000}
	if got := m.CPUs[0].Cost(grain); got != 4000 {
		t.Fatalf("cost with an idle sibling = %v, want 4000", got)
	}
	var ended []Time
	m.CPUs[1].Spin(spinTask(s, &ended))
	if got := m.CPUs[0].Cost(grain); got != 5000 {
		t.Fatalf("cost with a spinning sibling = %v, want 5000", got)
	}
	var done Time
	m.CPUs[0].Submit(&Task{Name: "t", Prio: PrioSoftIRQ, FixedNS: 4000, OnDone: func() { done = s.Now() }})
	s.RunUntil(10000)
	if done != 5000 {
		t.Fatalf("task started beside the spin finished at %v, want 5000", done)
	}
}
