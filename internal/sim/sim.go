// Package sim implements the discrete-event simulation engine that underlies
// the capture-system models.
//
// The engine is deliberately small: a simulated clock, an event queue ordered
// by (time, sequence), and a Run loop. Determinism is a hard requirement
// (the thesis demands reproducible measurements), so ties are broken by
// insertion order and no real-world time or map iteration order ever leaks
// into scheduling decisions.
//
// The queue is a radix heap (see radix.go): O(1) schedule and cancel, and
// equal times fire in insertion order without a comparison.
//
// CPUs (see cpu.go) are built on top of the event queue and provide
// priority-scheduled, preemptible execution of work items with cycle-accurate
// cost accounting.
package sim

import (
	"fmt"
	"time"
)

// Time is simulated time in nanoseconds since the start of the simulation.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration = time.Duration

const (
	// Nanosecond .. Second mirror the time package for readability at call
	// sites that construct simulated durations.
	Nanosecond  = Time(1)
	Microsecond = 1000 * Nanosecond
	Millisecond = 1000 * Microsecond
	Second      = 1000 * Millisecond
)

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback. Event structs are single-owner and pooled
// on a per-Sim free list: once popped from the queue they are recycled
// immediately, so the hot path allocates nothing in steady state. The
// generation counter invalidates EventRefs to recycled structs.
//
// Task completions — the dominant event type, one per executed Task — are
// stored intrusively (kind evTask with cpu/task pointers) instead of as a
// closure, so completing a task allocates nothing. The kind tag, not a nil
// check, selects the dispatch path; stale pointers from a previous use of
// the struct are simply ignored, which spares recycle from clearing them
// (each clear would cost a GC write barrier per dispatched event).
type event struct {
	at     Time
	fn     func() // kind evFunc
	cpu    *CPU   // kind evTask
	task   *Task  // kind evTask
	gen    uint64 // bumped on recycle; stale EventRefs miscompare
	kind   uint8
	cancel bool
}

const (
	evFunc = uint8(iota) // run fn
	evTask               // run cpu.complete(task)
)

// EventRef identifies a scheduled event so it can be cancelled.
type EventRef struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing. Cancellation is O(1) and lazy: the
// event stays in its bucket and is recycled when the queue reaches it.
// Cancelling an already-fired or already-cancelled event is a no-op: the
// generation counter detects that the underlying struct has been recycled
// for a newer event.
func (r EventRef) Cancel() {
	if r.ev != nil && r.ev.gen == r.gen {
		r.ev.cancel = true
	}
}

// Sim is a discrete-event simulator instance.
type Sim struct {
	radix  // the event queue
	now    Time
	nsteps uint64
	free   []*event // recycled event structs (single-owner pool)
}

// initialQueueCap pre-sizes the free list so short runs never re-grow it and
// long runs amortize growth to zero.
const initialQueueCap = 256

// maxFreeEvents caps the free list. A burst-heavy cell can push tens of
// thousands of events in flight at once; without a cap the pool would pin
// that high-water mark in memory for the rest of a long campaign. Beyond the
// cap, recycled structs are dropped for the GC. The cap comfortably exceeds
// the steady-state in-flight population of every modelled system (one
// chained arrival, per-CPU task completions, and a handful of timeouts).
const maxFreeEvents = 1024

// New returns an empty simulator at time zero.
func New() *Sim {
	return &Sim{free: make([]*event, 0, initialQueueCap)}
}

// alloc takes an event struct off the free list, or makes a new one if the
// pool is dry (only while the in-flight high-water mark is still growing).
func (s *Sim) alloc() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free = s.free[:n-1]
		return ev
	}
	return new(event)
}

// recycle returns a dispatched event to the pool. Bumping the generation
// first turns any EventRef still pointing here into a no-op. The callback
// pointer is deliberately left in place — clearing it costs a GC write
// barrier per dispatched event, and the pool is capped, so at most
// maxFreeEvents stale closures stay reachable until their structs are
// reused.
func (s *Sim) recycle(ev *event) {
	ev.gen++
	ev.cancel = false
	if len(s.free) < maxFreeEvents {
		s.free = append(s.free, ev)
	}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Steps reports how many events have been executed so far.
func (s *Sim) Steps() uint64 { return s.nsteps }

// At schedules fn to run at absolute simulated time at. Scheduling in the
// past panics: it always indicates a modelling bug.
func (s *Sim) At(at Time, fn func()) EventRef {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	ev := s.alloc()
	ev.at, ev.fn, ev.kind = at, fn, evFunc
	s.insert(ev)
	return EventRef{ev, ev.gen}
}

// After schedules fn to run d nanoseconds from now.
func (s *Sim) After(d Time, fn func()) EventRef {
	if d < 0 {
		panic("sim: negative delay")
	}
	return s.At(s.now+d, fn)
}

// afterTask schedules the completion of t on c, d nanoseconds from now. It
// is the closure-free twin of After for the per-task completion event — the
// single most frequent event in every capture model — so running a task
// does not allocate.
func (s *Sim) afterTask(d Time, c *CPU, t *Task) EventRef {
	ev := s.alloc()
	ev.at, ev.cpu, ev.task, ev.kind = s.now+d, c, t, evTask
	s.insert(ev)
	return EventRef{ev, ev.gen}
}

// RunUntil executes events in order until the queue is empty or the next
// event is later than limit. The clock is left at the time of the last
// executed event (or limit if the queue drained earlier than limit but the
// caller wants a full window; see AdvanceTo).
func (s *Sim) RunUntil(limit Time) {
	for {
		var ev *event
		if b := s.bucket[0]; s.head < len(b) {
			if s.last > limit {
				return
			}
			ev = b[s.head]
			s.head++
		} else if ev = s.refill(limit); ev == nil {
			return
		}
		// Recycle before running the callback: a dispatched event can never
		// fire again, and the callback may schedule new events that reuse
		// the struct.
		at, fn, cpu, task := ev.at, ev.fn, ev.cpu, ev.task
		kind, cancelled := ev.kind, ev.cancel
		s.recycle(ev)
		if cancelled {
			continue
		}
		s.now = at
		s.nsteps++
		if kind == evTask {
			cpu.complete(task)
		} else {
			fn()
		}
	}
}

// Run executes all events until the queue is empty.
func (s *Sim) Run() { s.RunUntil(Time(1<<62 - 1)) }

// AdvanceTo moves the clock to t without executing anything. It panics if
// non-cancelled events earlier than t are still pending, or if t is in the
// past.
func (s *Sim) AdvanceTo(t Time) {
	if t < s.now {
		panic("sim: AdvanceTo into the past")
	}
	if at, live := s.earliest(); live > 0 && at < t {
		panic("sim: AdvanceTo would skip pending events")
	}
	s.now = t
}

// Pending reports the number of live (non-cancelled) events in the queue.
// It walks the whole queue.
func (s *Sim) Pending() int {
	_, live := s.earliest()
	return live
}
