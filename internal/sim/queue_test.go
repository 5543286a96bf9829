package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// --- reference scheduler -------------------------------------------------
//
// refSched is an executable specification of the event queue: a
// container/heap binary heap ordered by (time, seq) with lazy cancellation.
// It exists only for the property test below — the queue must fire exactly
// what this heap fires, in the same order, window by window.

type refItem struct {
	at     Time
	seq    uint64
	fn     func()
	cancel bool
}

type refHeap []*refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)  { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)    { *h = append(*h, x.(*refItem)) }
func (h *refHeap) Pop() (it any) { old := *h; n := len(old); it = old[n-1]; *h = old[:n-1]; return }

type refSched struct {
	now Time
	seq uint64
	h   refHeap
}

func (r *refSched) Now() Time { return r.now }

func (r *refSched) at(at Time, fn func()) (cancel func()) {
	it := &refItem{at: at, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.h, it)
	return func() { it.cancel = true }
}

// RunUntil fires, in order, every live event due by limit.
func (r *refSched) RunUntil(limit Time) {
	for r.h.Len() > 0 && r.h[0].at <= limit {
		it := heap.Pop(&r.h).(*refItem)
		if it.cancel {
			continue
		}
		r.now = it.at
		it.fn()
	}
}

// next returns the time of the earliest live event.
func (r *refSched) next() (at Time, ok bool) {
	for _, it := range r.h {
		if !it.cancel && (!ok || it.at < at) {
			at, ok = it.at, true
		}
	}
	return at, ok
}

func (r *refSched) AdvanceTo(t Time) {
	if at, ok := r.next(); t < r.now || ok && at < t {
		panic("refSched: AdvanceTo would skip pending events")
	}
	r.now = t
}

func (r *refSched) Pending() (n int) {
	for _, it := range r.h {
		if !it.cancel {
			n++
		}
	}
	return n
}

// --- property test -------------------------------------------------------

// scheduler is what the randomized program needs of a queue.
type scheduler interface {
	Now() Time
	at(t Time, fn func()) (cancel func())
	RunUntil(limit Time)
	AdvanceTo(t Time)
	Pending() int
}

type simSched struct{ *Sim }

func (s simSched) at(t Time, fn func()) func() { return s.At(t, fn).Cancel }

// program is one copy of a randomized workload bound to one scheduler:
// schedules at mixed distances, same-instant schedules, cancels and
// reschedules. Two copies with the same seed make the same decisions for
// as long as their schedulers fire the same events at the same times.
type program struct {
	q      scheduler
	rng    *rand.Rand
	log    []Time   // fired (id, time) pairs
	live   []func() // cancel actions of events believed pending
	budget int      // events left to schedule; bounds the run
	id     Time
}

func newProgram(seed int64, q scheduler) *program {
	return &program{q: q, rng: rand.New(rand.NewSource(seed)), budget: 4000}
}

// randomGap draws a scheduling distance from a mix of scales.
func randomGap(rng *rand.Rand) Time {
	switch rng.Intn(5) {
	case 0:
		return 0 // same instant: exercises FIFO tie-break
	case 1:
		return Time(rng.Intn(64))
	case 2:
		return Time(rng.Intn(4096))
	case 3:
		return Time(rng.Intn(1_000_000))
	default:
		return Time(rng.Int63n(1 << 40)) // far future: the high buckets
	}
}

func (p *program) schedule() { p.scheduleIn(randomGap(p.rng)) }

// scheduleIn schedules an event gap from now and returns its cancel
// action, or nil once the budget is spent.
func (p *program) scheduleIn(gap Time) func() {
	if p.budget <= 0 {
		return nil
	}
	p.budget--
	p.id++
	id := p.id
	cancel := p.q.at(p.q.Now()+gap, func() {
		p.log = append(p.log, id, p.q.Now())
		// Fan out: keep the queue populated with a mix of distances.
		for k := p.rng.Intn(3); k > 0; k-- {
			p.schedule()
		}
		p.meddle()
	})
	p.live = append(p.live, cancel)
	return cancel
}

// meddle sometimes cancels a random event believed pending (possibly
// already fired: must be a no-op either way), and sometimes cancels one
// and schedules a replacement.
func (p *program) meddle() {
	if len(p.live) > 0 && p.rng.Intn(3) == 0 {
		p.live[p.rng.Intn(len(p.live))]()
	}
	if len(p.live) > 0 && p.rng.Intn(4) == 0 {
		p.live[p.rng.Intn(len(p.live))]()
		p.schedule()
	}
}

// checkQueue runs the program for seed on a Sim and on refSched in
// lockstep. It advances both in RunUntil windows: of width zero, of random
// width on a log scale, up to the next live event, or up to just before
// it, so that the window has only cancelled events to reclaim. Between
// windows it schedules from outside any callback, often between now and
// the next live event and often cancelling at once, cancels, and sometimes
// calls AdvanceTo on a time at or before the next live event. After every
// window the fired (id, time) logs, the clocks and Pending() must agree.
func checkQueue(seed int64) (err error) {
	ref := &refSched{}
	got, want := newProgram(seed, simSched{New()}), newProgram(seed, ref)
	both := func(f func(*program)) { f(got); f(want) }
	rng := rand.New(rand.NewSource(^seed)) // windows and outside actions
	window, seen := 0, 0
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("seed %d, window %d: panic: %v", seed, window, r)
		}
	}()
	both(func(p *program) {
		for i := 0; i < 16; i++ {
			p.schedule()
		}
	})
	for ; ref.Pending() > 0 || want.budget > 0; window++ {
		now := ref.Now()
		next, live := ref.next()
		n := rng.Intn(5)
		if !live {
			n++
		}
		for ; n > 0; n-- {
			gap := randomGap(rng)
			if live && rng.Intn(2) == 0 {
				gap = Time(rng.Int63n(int64(next-now) + 1))
			}
			drop := rng.Intn(2) == 0
			both(func(p *program) {
				if cancel := p.scheduleIn(gap); cancel != nil && drop {
					cancel()
				}
			})
		}
		if rng.Intn(2) == 0 {
			both((*program).meddle)
		}
		next, live = ref.next()
		if rng.Intn(4) == 0 {
			t := now + Time(rng.Int63n(1<<20))
			if live {
				t = now + Time(rng.Int63n(int64(next-now)+1))
			}
			both(func(p *program) { p.q.AdvanceTo(t) })
			now = t
		}
		limit := now
		switch rng.Intn(5) {
		case 0:
			// width 0: only what is due now
		case 1:
			if live {
				limit = next
			}
		case 2:
			if live && next > now {
				limit = next - 1
			}
		default:
			limit = now + Time(rng.Int63n(1<<rng.Intn(30)))
		}
		both(func(p *program) { p.q.RunUntil(limit) })
		if len(got.log) != len(want.log) {
			return fmt.Errorf("seed %d, window %d: queue fired %d events, reference %d",
				seed, window, len(got.log)/2, len(want.log)/2)
		}
		for ; seen < len(want.log); seen++ {
			if got.log[seen] != want.log[seen] {
				return fmt.Errorf("seed %d, window %d: fired logs diverge at entry %d: queue %v, reference %v",
					seed, window, seen/2, got.log[seen], want.log[seen])
			}
		}
		if got.q.Now() != ref.Now() || got.q.Pending() != ref.Pending() {
			return fmt.Errorf("seed %d, window %d: queue at %v with %d pending, reference at %v with %d",
				seed, window, got.q.Now(), got.q.Pending(), ref.Now(), ref.Pending())
		}
	}
	return nil
}

// TestEventQueueMatchesReferenceHeap is the scheduler equivalence property
// test: on randomized workloads, the queue must fire exactly what the
// reference binary heap fires, in the same order, window by window.
func TestEventQueueMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		if err := checkQueue(seed); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzEventQueue runs the same property on seeds beyond the test's.
func FuzzEventQueue(f *testing.F) {
	for seed := int64(1); seed <= 25; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := checkQueue(seed); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFreeListCapped asserts that a burst of in-flight events does not pin
// its high-water mark on the free list: after the burst drains, the pool
// holds at most maxFreeEvents structs and the surplus is left to the GC.
func TestFreeListCapped(t *testing.T) {
	s := New()
	const burst = 4 * maxFreeEvents
	for i := 0; i < burst; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if got := len(s.free); got > maxFreeEvents {
		t.Fatalf("free list holds %d events after a %d-event burst, cap is %d",
			got, burst, maxFreeEvents)
	}
	// The pool must still be useful: the cap is a bound, not a purge.
	if got := len(s.free); got != maxFreeEvents {
		t.Fatalf("free list holds %d events, want exactly the cap %d", got, maxFreeEvents)
	}
}

// --- microbenchmarks -----------------------------------------------------

func nop() {}

// BenchmarkSchedule measures raw insertion: filing events at mixed
// distances without dispatching any of them.
func BenchmarkSchedule(b *testing.B) {
	s := New()
	gaps := make([]Time, 1024)
	rng := rand.New(rand.NewSource(7))
	for i := range gaps {
		gaps[i] = Time(rng.Int63n(1 << 30))
	}
	// Drain every batch so the benchmark measures insertion, not the memory
	// footprint of b.N undispatched events.
	const batch = 1 << 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(batch-1) == batch-1 {
			b.StopTimer()
			s.Run()
			b.StartTimer()
		}
		s.At(s.Now()+gaps[i&1023], nop)
	}
}

// BenchmarkCancel measures O(1) lazy cancellation of pending events.
func BenchmarkCancel(b *testing.B) {
	s := New()
	const batch = 1 << 16
	refs := make([]EventRef, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (batch - 1)
		if j == 0 {
			b.StopTimer()
			s.Run() // reclaim the previous batch's cancelled events
			for k := range refs {
				refs[k] = s.At(s.Now()+Time(k)+1, nop)
			}
			b.StartTimer()
		}
		refs[j].Cancel()
	}
}

// benchRun measures steady-state dispatch throughput (ns per fired event)
// with a configurable number of in-flight chains and tick gap. Dense mirrors
// a saturated capture cell (many near-future events); sparse mirrors the
// idle-to-moderate regime the end-to-end sweeps live in (a handful of
// widely spaced events). The untimed warm-up fills the free list and grows
// the buckets the chains use.
func benchRun(b *testing.B, chains int, gap Time) {
	s := New()
	var tick func()
	tick = func() { s.After(gap, tick) }
	for i := 0; i < chains; i++ {
		s.At(Time(i), tick)
	}
	s.RunUntil(s.Now() + 4*gap) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	fired := int(s.Steps())
	for s.Steps() < uint64(b.N+fired) {
		s.RunUntil(s.Now() + 64*gap)
	}
}

func BenchmarkRunDense(b *testing.B)  { benchRun(b, 64, 100) }
func BenchmarkRunSparse(b *testing.B) { benchRun(b, 4, 300_000) }
