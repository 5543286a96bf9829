// The cell engine. The testbed is embarrassingly parallel by
// construction: the splitter feeds the same train to all sniffers at once,
// and every (system, rate, repetition) point is an independent run with its
// own simulator. Run executes such cells — replaying the ones the campaign
// journal already holds, recording each train once (feed.go), running the
// rest on a worker pool or handing them to an executor, recording and
// publishing every final outcome — and Sweep lays the §3.4 rate sweep out
// as cells and reassembles the series in the fixed plotting order, so the
// output is byte-identical for any worker count.
//
// Run takes a context: on cancellation the pool drains cleanly — in-flight
// cells finish, queued cells are marked with the context's error, and no
// worker goroutine is abandoned. Combined with a CellJournal (the durable
// write-ahead log of completed cells), an interrupted sweep resumes
// exactly where it left off. With Options.Chaos set, every cell runs under
// fault supervision instead (resilient.go); everything else is shared.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/capture"
	"repro/internal/faults"
)

// Cell is one independent measurement: one system fed one workload.
type Cell struct {
	Cfg capture.Config
	W   Workload
	// Wrap, when non-nil, wraps the replayed feed before the run: selfsim
	// re-times its bursty cells' trains with self-similar gaps, the
	// fault-injection supervisor adds degraded splitter legs and truncated
	// generator trains on top, and tests use it for failure hooks. The
	// recorded feed itself stays shared and pristine.
	Wrap func(capture.Source) capture.Source
}

// CellID names a cell for the fault model and the campaign journal: the
// measurement point it belongs to (a stable fingerprint, e.g. the x
// value's bits) and the repetition index. Faults are drawn from (plan
// seed, point, system, rep, attempt), never from execution order, so
// chaos runs are exactly reproducible for any worker count — and across
// an interrupt-and-resume boundary.
type CellID struct {
	Point uint64
	Rep   int
}

// CellKey identifies one measurement cell durably, across process
// restarts: the experiment it belongs to, the point fingerprint and
// repetition (CellID), and the system under test. It is the journal key
// of the campaign write-ahead log and the lease key of the dispatch
// protocol.
type CellKey struct {
	Experiment string `json:"experiment"`
	Point      uint64 `json:"point"`
	System     string `json:"system"`
	Rep        int    `json:"rep"`
}

// KeyOf is the durable key of cell c, named id, under experiment — the
// one place the journal and lease key format is decided.
func KeyOf(experiment string, c Cell, id CellID) CellKey {
	return CellKey{Experiment: experiment, Point: id.Point, System: c.Cfg.Name, Rep: id.Rep}
}

// CellOutcome is the final result of one measurement cell. It is what
// the campaign journal stores per cell, so every field must — and does —
// round-trip exactly through JSON. An unsupervised cell that ran is
// {Stats, OK: true, Attempts: 1}.
type CellOutcome struct {
	Stats capture.Stats
	// OK: a validated Stats was produced (possibly degraded). When false
	// the cell is quarantined and Stats holds the last failed attempt's
	// partial data (zero if the sniffer never returned statistics).
	OK bool
	// Degraded: the accepted run was offered fewer frames than the switch
	// counted (degraded splitter leg); the shortfall is booked in the
	// ledger under fault-splitter and Generated is normalized, so the
	// stats balance but the capturing rate reflects the impairment.
	Degraded bool
	// Quarantined: no attempt within the retry budget produced a valid
	// run.
	Quarantined bool
	// Attempts is the number of cycle attempts spent (1 = clean first
	// try).
	Attempts int
	// BackoffNS is the simulated control-host time spent backing off
	// between attempts.
	BackoffNS float64
	// Log is the cell's fault-and-retry history, oldest first.
	Log []string
}

// CellJournal is the durable campaign log Run records completed cells
// into (and replays them from). Implementations must be safe for
// concurrent Record calls: workers append as cells finish. The contract
// is write-ahead: Record must make the outcome durable before returning,
// and Lookup must only return outcomes Record accepted. Duplicate keys
// are last-write-wins.
type CellJournal interface {
	// Lookup returns the recorded final outcome of a completed cell.
	Lookup(k CellKey) (CellOutcome, bool)
	// Record durably appends the final outcome of a completed cell.
	Record(k CellKey, out CellOutcome) error
}

// CellExecutor runs measurement cells somewhere other than the local
// worker pool — the dispatch coordinator implements it by leasing cells
// to remote workers. The contract mirrors the local pool exactly:
// ExecuteCells must call done at most once per cell index (from any
// goroutine; slots are disjoint), passing the measured statistics and a
// worker label for event attribution, and must return one error slot per
// cell — nil for cells whose done call succeeded, the done error
// otherwise, and ctx.Err() for cells abandoned on cancellation. Replayed
// cells never reach an executor: Run filters against the campaign
// journal first, so a resumed campaign re-dispatches only unfinished
// work.
type CellExecutor interface {
	ExecuteCells(ctx context.Context, experiment string, cells []Cell, ids []CellID,
		done func(i int, st *capture.Stats, worker string) error) []error
}

// Options configure Run and Sweep. The zero value runs the cells
// serially on a private feed cache: unjournaled, unobserved and
// unsupervised.
type Options struct {
	// Workers is the parallelism knob, resolved by the Workers function
	// (0 = serial).
	Workers int
	// Experiment namespaces the journal keys and events of the run (the
	// experiment id).
	Experiment string
	// Journal, when non-nil, makes the run durable: cells with a recorded
	// final outcome are replayed instead of run, and every newly final
	// outcome is recorded before it is published or returned.
	Journal CellJournal
	// Observer, when non-nil, receives the run's live events: EventCell
	// per final cell (replayed ones up front), and under Chaos EventRetry,
	// EventSnifferDead and EventQuarantine. Observation never changes an
	// outcome.
	Observer Observer
	// Executor, when non-nil, runs the cells that were not replayed
	// instead of the local pool — all of them in one ExecuteCells call, in
	// cell order. Ignored under Chaos: fault injection works through
	// process-local hooks that cannot be dispatched.
	Executor CellExecutor
	// Feeds is the recorded-train cache the cells replay; nil gives each
	// Run a fresh DefaultFeedCacheSize cache. A dispatch worker passes its
	// own so successive leases of one experiment reuse their trains.
	Feeds *FeedCache
	// Chaos, when non-nil, runs every cell under fault supervision with
	// this plan: validation, bounded retry with simulated backoff,
	// quarantine, and MAD outlier rejection in Sweep (resilient.go).
	Chaos *faults.Plan
}

// Workers resolves a parallelism knob to a worker count: 0 keeps the
// serial path, negative values use one worker per CPU, positive values are
// taken as-is.
func Workers(parallelism int) int {
	if parallelism < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// CellPanicError reports a measurement cell whose run panicked. The
// worker recovers it so one broken configuration cannot kill the whole
// sweep process or leave sibling workers blocked; the supervisor treats
// it as a failed attempt and retries the cell.
type CellPanicError struct {
	Index  int
	System string
	Value  any
	Stack  []byte
}

func (e *CellPanicError) Error() string {
	return fmt.Sprintf("core: cell %d (%s) panicked: %v", e.Index, e.System, e.Value)
}

// IsCancel reports whether err is a context cancellation — an expected
// interruption, not a cell failure.
func IsCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Run executes independent measurement cells, named by ids (which must
// parallel cells), and returns their outcomes and error slots in cell
// order. Cells with an identical Workload share one recorded feed
// regardless of worker count, so a four-sniffer column generates its
// train exactly once — the splitter semantics of Figure 3.1.
//
// A panicking cell yields a *CellPanicError in its slot instead of
// crashing the process; a failed journal append yields the append error
// and publishes nothing — durability failures must not masquerade as
// measurements. On cancellation the run drains: cells never started
// carry ctx.Err(), and supervised cells cut short are neither accepted
// nor quarantined, so a resumed campaign measures them from scratch. A
// cell the executor never completes stays a zero outcome with a nil
// error.
func Run(ctx context.Context, cells []Cell, ids []CellID, o Options) ([]CellOutcome, []error) {
	if len(ids) != len(cells) {
		panic(fmt.Sprintf("core: %d ids for %d cells", len(ids), len(cells)))
	}
	if o.Feeds == nil {
		o.Feeds = NewFeedCache(DefaultFeedCacheSize)
	}
	e := &engine{ctx: ctx, cells: cells, ids: ids, o: o,
		outs: make([]CellOutcome, len(cells)), errs: make([]error, len(cells))}
	pending := make([]int, 0, len(cells))
	for i := range cells {
		if o.Journal != nil {
			if out, ok := o.Journal.Lookup(e.key(i)); ok && (out.OK || out.Quarantined) {
				e.outs[i] = out
				e.publish(i, "", 0, true)
				continue
			}
		}
		pending = append(pending, i)
	}
	var errs []error
	switch {
	case o.Chaos != nil:
		e.supervise(pending)
		return e.outs, e.errs
	case o.Executor != nil:
		errs = e.dispatch(pending)
	default:
		errs = e.pool(cells, pending, func(i int, st *capture.Stats) error {
			return e.measured(i, st, "")
		})
	}
	for k, i := range pending {
		if k < len(errs) {
			e.errs[i] = errs[k]
		}
	}
	return e.outs, e.errs
}

// engine is the state of one Run call. Workers write only the slots of
// the cells they hold.
type engine struct {
	ctx   context.Context
	cells []Cell
	ids   []CellID
	o     Options
	outs  []CellOutcome
	errs  []error
}

func (e *engine) key(i int) CellKey { return KeyOf(e.o.Experiment, e.cells[i], e.ids[i]) }

// event is the skeleton of a cell-level event of cell i.
func (e *engine) event(kind EventKind, i, attempt int, detail string) Event {
	return Event{
		Kind: kind, Experiment: e.o.Experiment, System: e.cells[i].Cfg.Name,
		Point: e.ids[i].Point, X: e.cells[i].W.TargetRate / 1e6, Rep: e.ids[i].Rep,
		Attempt: attempt, Detail: detail,
	}
}

// measured finishes an unsupervised cell that ran: its outcome is the
// run's statistics from one clean attempt.
func (e *engine) measured(i int, st *capture.Stats, worker string) error {
	e.outs[i] = CellOutcome{Stats: *st, OK: true, Attempts: 1}
	return e.finish(i, worker, 0)
}

// finish is the record-then-emit step of a cell whose outcome just became
// final: make it durable, then publish it. A failed append is returned and
// nothing is published.
func (e *engine) finish(i int, worker string, attempt int) error {
	if e.o.Journal != nil {
		if err := e.o.Journal.Record(e.key(i), e.outs[i]); err != nil {
			return err
		}
	}
	e.publish(i, worker, attempt, false)
	return nil
}

// publish emits cell i's final outcome: an EventCell carrying a private
// copy of its statistics, or an EventQuarantine. Supervised events also
// carry the outcome; unsupervised ones carry Stats only.
func (e *engine) publish(i int, worker string, attempt int, replayed bool) {
	if e.o.Observer == nil {
		return
	}
	out := e.outs[i]
	ev := e.event(EventCell, i, attempt, "")
	if out.Quarantined {
		ev.Kind, ev.Detail = EventQuarantine, "retry budget exhausted"
		if replayed {
			ev.Detail = "replayed quarantine verdict"
		}
	}
	ev.Worker, ev.Replayed, ev.Stats = worker, replayed, &out.Stats
	if e.o.Chaos != nil {
		ev.Outcome = &out
	}
	e.o.Observer.Observe(ev)
}

// dispatch hands the pending cells to the executor in one call, in cell
// order, and returns its error slots; its done callback drives the same
// record-then-emit step the local pool does.
func (e *engine) dispatch(pending []int) []error {
	cells := make([]Cell, len(pending))
	ids := make([]CellID, len(pending))
	for k, i := range pending {
		cells[k], ids[k] = e.cells[i], e.ids[i]
	}
	return e.o.Executor.ExecuteCells(e.ctx, e.o.Experiment, cells, ids,
		func(k int, st *capture.Stats, worker string) error {
			return e.measured(pending[k], st, worker)
		})
}

// pool runs cells[i] for every i in idx on the worker pool, replaying
// the shared feeds, and returns one error slot per idx entry. post runs
// in the worker right after each run, inside the panic-recovery scope and
// while the cell's feed is still hot in the cache; its error lands in the
// slot.
//
// Cancellation drains the pool instead of abandoning it: the dispatcher
// stops handing out cells, every worker finishes its in-flight cell and
// exits, and cells never dispatched carry ctx.Err().
func (e *engine) pool(cells []Cell, idx []int, post func(i int, st *capture.Stats) error) []error {
	errs := make([]error, len(idx))
	runCell := func(k int) {
		i := idx[k]
		defer func() {
			if r := recover(); r != nil {
				errs[k] = &CellPanicError{Index: i, System: cells[i].Cfg.Name, Value: r, Stack: stackTrace()}
			}
		}()
		c := cells[i]
		src := e.o.Feeds.Get(c.W).Replay()
		if c.Wrap != nil {
			src = c.Wrap(src)
		}
		st := capture.NewSystem(Prepare(c.Cfg, c.W)).RunSource(src)
		errs[k] = post(i, &st)
	}

	workers := Workers(e.o.Workers)
	if workers > len(idx) {
		workers = len(idx)
	}
	if workers <= 1 {
		// Serial fallback (and the degenerate one-worker pool): same code
		// path as the pool body, no goroutines.
		for k := range idx {
			if err := e.ctx.Err(); err != nil {
				errs[k] = err
				continue
			}
			runCell(k)
		}
		return errs
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				runCell(k)
			}
		}()
	}
	k := 0
dispatch:
	for ; k < len(idx); k++ {
		if e.ctx.Err() != nil {
			break
		}
		select {
		case jobs <- k:
		case <-e.ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	// Cells never dispatched carry the cancellation; their slots are
	// disjoint from anything a worker still writes.
	for ; k < len(idx); k++ {
		errs[k] = e.ctx.Err()
	}
	wg.Wait()
	return errs
}

// stackTrace captures the recovering goroutine's stack for the panic
// error.
func stackTrace() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}

// sweepCells lays out the standard §3.4 rate sweep as measurement cells in
// column-major order — the systems of one (rate, rep) column are adjacent,
// so they replay the column's feed while it is hot in the LRU and workers
// draining nearby indices share one recording — with the matching CellIDs.
func sweepCells(cfgs []capture.Config, ratesMbit []float64, w Workload, reps int) ([]Cell, []CellID) {
	cells := make([]Cell, 0, len(ratesMbit)*reps*len(cfgs))
	ids := make([]CellID, 0, len(ratesMbit)*reps*len(cfgs))
	for _, r := range ratesMbit {
		for rep := 0; rep < reps; rep++ {
			wl := w.Rep(rep)
			wl.TargetRate = r * 1e6
			for _, cfg := range cfgs {
				cells = append(cells, Cell{Cfg: cfg, W: wl})
				ids = append(ids, CellID{Point: pointKey(r), Rep: rep})
			}
		}
	}
	return cells, ids
}

// pointKey fingerprints a sweep point for the fault model and the journal.
func pointKey(x float64) uint64 { return uint64(int64(x * 1e3)) }

// Sweep runs the full measurement cycle of §3.4 for each system over the
// data rates (Mbit/s), repeating each point reps times with distinct
// seeds and aggregating in repetition order — the thesis repeats each
// point seven times "to avoid outliers". The cells run through Run with
// o, so the series are byte-identical for any worker count, journal
// state or executor. With an Observer attached, each (system, rate)
// point is also published as an EventPoint once its repetitions are
// final, in plotting layout order. On cancellation the returned series
// are incomplete and must be discarded — callers check ctx.Err(); any
// other cell error panics.
func Sweep(ctx context.Context, cfgs []capture.Config, ratesMbit []float64, w Workload, reps int, o Options) []Series {
	if reps <= 0 {
		reps = 1
	}
	cells, ids := sweepCells(cfgs, ratesMbit, w, reps)
	ncfg := len(cfgs)
	// point resolves the (rate ri, system ci) point from the outcomes of
	// its repetitions.
	point := func(outs []CellOutcome, ri, ci int) Point {
		column := make([]CellOutcome, reps)
		for rep := range column {
			column[rep] = outs[(ri*reps+rep)*ncfg+ci]
		}
		pt := resolvePoint(cfgs[ci].Name, column, o.Chaos != nil)
		pt.X = ratesMbit[ri]
		return pt
	}
	if o.Observer != nil {
		o.Observer = sweepObserver(o.Observer, o.Experiment, cells, ids, ncfg, reps, point)
	}
	outs, errs := Run(ctx, cells, ids, o)
	for _, err := range errs {
		if err != nil && !IsCancel(err) {
			panic(err)
		}
	}
	out := make([]Series, ncfg)
	for ci, cfg := range cfgs {
		out[ci] = Series{System: cfg.Name, Points: make([]Point, len(ratesMbit))}
		for ri := range ratesMbit {
			out[ci].Points[ri] = point(outs, ri, ci)
		}
	}
	return out
}
