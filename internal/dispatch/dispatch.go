// Package dispatch shards a campaign's measurement cells across worker
// processes with lease-based fault tolerance.
//
// The coordinator implements core.CellExecutor: core.Run hands it the
// cells a campaign still has to measure (replayed cells never arrive),
// and it leases them in small batches to workers over the
// monitoring HTTP API. Robustness is the design center:
//
//   - Leases carry deadlines in coordinator-monotonic time (a
//     time.Since of the coordinator's start instant — wall-clock jumps
//     on either side cannot expire or immortalize a lease). A worker
//     extends its deadlines by heartbeating; a SIGKILLed worker simply
//     stops, its leases expire, and only its in-flight cells return to
//     the queue.
//   - Expired cells are re-dispatched with bounded retry and doubling
//     backoff — the shape of the cell engine's fault supervision — and a
//     cell that exhausts its dispatch budget is run locally by the
//     coordinator, so a campaign always terminates even if every worker
//     is hostile. Once no worker has called for the straggler window,
//     every undone cell runs locally too: a campaign whose workers are
//     all gone terminates as well.
//   - A lease that lives past the straggler threshold (its worker
//     heartbeats but never finishes) is speculatively re-dispatched to a
//     healthy worker; whichever copy finishes first wins.
//   - Duplicate completions — the straggler's late answer, a completion
//     racing an expiry — resolve deterministically by the campaign
//     journal's last-write-wins rule: cells are deterministic, so every
//     copy of an outcome is byte-identical and the journal's final word
//     never changes.
//   - The lease table itself is journaled in the same CRC-framed WAL
//     format (dispatch.journal, next to campaign.journal), so a killed
//     and -resume'd coordinator restores each cell's dispatch-attempt
//     count — the retry budget survives coordinator crashes.
//
// Workers hold no campaign state: they enumerate the experiment's cell
// space locally (experiments.EnumerateCells) and refuse to serve a
// coordinator whose campaign fingerprint differs from their own options
// (a typed refusal the CLI maps to exit code 2).
package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/journal"
)

// Lease-protocol timings and budgets.
const (
	// leaseTTL is how long a granted lease stays valid without a
	// heartbeat.
	leaseTTL = 5 * time.Second
	// straggler is the age at which a live lease is speculatively
	// re-dispatched. It is also how long the coordinator waits without
	// any worker call before it runs the cells still undone itself.
	straggler = 8 * leaseTTL
	// maxLease bounds the cells handed out per lease.
	maxLease = 8
	// retryBudget is the dispatch attempts per cell before the
	// coordinator stops trusting workers and runs it locally.
	retryBudget = 3
	// requeueBackoff is the base re-dispatch delay after an expiry,
	// doubled per spent attempt (the shape of the cell engine's fault
	// supervision).
	requeueBackoff = 250 * time.Millisecond
	// strikeout quarantines a worker once its leases have expired in this
	// many outages: it keeps asking for work and keeps losing it. The
	// leases that expire before the worker calls again are one outage.
	strikeout = 3
	// leaseHold is how long a lease request that finds nothing leasable
	// waits at the coordinator for that to change before it is answered
	// 204. It stays well under the worker's callTimeout, so injected
	// network latency never times a held call out, and under the CLI's
	// 2 s graceful shutdown window.
	leaseHold = 1 * time.Second
)

// WALFile is the dispatch write-ahead log's file name inside the
// -journal directory, next to the campaign journal.
const WALFile = "dispatch.journal"

// Record is one completed cell as reported by a worker: the durable key
// and the measured outcome. The JSON shape matches the campaign
// journal's cell records, and capture.Stats round-trips exactly through
// JSON, so a dispatched outcome is byte-identical to a local one.
type Record struct {
	Key core.CellKey     `json:"key"`
	Out core.CellOutcome `json:"out"`
}

// alignHint names the flags that enter the campaign fingerprint
// (experiments.Fingerprint), for both sides' mismatch refusals.
const alignHint = "align -packets/-reps/-seed/-rates/-policy/-rings"

// FingerprintError is the coordinator-side refusal of a worker whose
// options hash to a different campaign fingerprint.
type FingerprintError struct{ Want, Got string }

func (e *FingerprintError) Error() string {
	return fmt.Sprintf("dispatch: campaign fingerprint mismatch: coordinator has %.12s…, worker offered %.12s… (%s)",
		e.Want, e.Got, alignHint)
}

// quarantinedError refuses a worker whose leases expired in strikeout
// outages.
type quarantinedError struct{ worker string }

func (e *quarantinedError) Error() string {
	return fmt.Sprintf("dispatch: worker %s is quarantined (its leases expired in %d outages)", e.worker, strikeout)
}

// doneError marks the campaign as finished: workers translate it into a
// clean exit.
type doneError struct{}

func (doneError) Error() string { return "dispatch: campaign complete" }

// IsDone reports whether err is the campaign-complete refusal.
func IsDone(err error) bool { _, ok := err.(doneError); return ok }

// IsQuarantined reports whether err is a worker-quarantine refusal.
func IsQuarantined(err error) bool { _, ok := err.(*quarantinedError); return ok }

// GrantedLease is what a worker receives: a batch of cell keys, the
// lease id to complete against, and the heartbeat deadline budget.
type GrantedLease struct {
	ID         uint64         `json:"lease"`
	Experiment string         `json:"experiment"`
	Keys       []core.CellKey `json:"keys"`
	TTLMS      int64          `json:"ttlMs"`
}

// Stats are the coordinator's lifetime dispatch tallies.
type Stats struct {
	Granted      uint64 // leases granted
	Expired      uint64 // leases ended unfinished: missed heartbeats, a dead worker, or no longer held by their worker
	Redispatched uint64 // straggler leases speculatively re-dispatched
	Duplicates   uint64 // duplicate cell completions (resolved last-write-wins)
	LocalCells   uint64 // cells run locally: past the retry budget, or with no worker left
	Completed    uint64 // cells finalized (first completion wins)
}

// walRecord is one frame of the dispatch WAL. Grants are the records
// that matter for recovery: replaying them restores each cell's
// dispatch-attempt count, so a coordinator crash cannot reset the retry
// budget. Expiry and duplicate frames document the lease table's
// history for post-mortems.
type walRecord struct {
	T      string         `json:"t"` // "grant" | "expire" | "dup" | "local"
	Lease  uint64         `json:"lease,omitempty"`
	Worker string         `json:"worker,omitempty"`
	Exp    string         `json:"exp,omitempty"`
	Keys   []core.CellKey `json:"keys,omitempty"`
}

// workerState tracks one worker's health across the campaign.
type workerState struct {
	leases      uint64
	expired     int  // outages in which its leases expired: strikes
	struck      bool // struck since its last call: another expiry is the same outage
	quarantined bool
	completed   uint64
	lastCall    time.Duration // coordinator clock of its last Lease, Heartbeat or Complete
}

// lease is one outstanding grant.
type lease struct {
	id       uint64
	worker   string
	set      *activeSet
	cells    []int
	granted  time.Duration
	deadline time.Duration
	redisp   bool // straggler re-dispatch already issued
}

// activeSet is the cell batch of the engine call currently being
// dispatched (one experiment's engine call at a time — the experiment
// driver is sequential).
type activeSet struct {
	experiment string
	cells      []core.Cell
	ids        []core.CellID
	keys       []core.CellKey
	byKey      map[core.CellKey]int
	finish     func(i int, st *capture.Stats, worker string) error
	done       []bool
	errs       []error
	pending    []int           // indices awaiting (re)dispatch
	eligible   []time.Duration // backoff gate per cell
	inflight   []int           // live leases covering each cell
	exhausted  []int           // cells past the retry budget, owed a local run
	remaining  int
	wg         sync.WaitGroup // in-flight finish callbacks
}

// Coordinator shards campaign cells into leases. Configure the exported
// fields before serving; they are read-only afterwards.
type Coordinator struct {
	Campaign    string
	Fingerprint string

	// LocalWorkers is the parallelism of local-fallback runs (the
	// Workers convention; 0 = serial).
	LocalWorkers int

	// Journal receives duplicate completions directly (last-write-wins);
	// first completions flow through the engine's done callback, which
	// records into the same journal. Set it to the campaign journal.
	Journal core.CellJournal
	// Observer receives lease-lifecycle events (EventLease,
	// EventLeaseExpired, straggler EventRetry) — the monitoring hub.
	Observer core.Observer
	// FS is the filesystem the lease-table WAL lives on; nil = the real
	// one. -diskchaos injects storage faults here: the WAL inherits the
	// journal's truncate-repair and pause-and-retry append, so a full
	// disk degrades grants to pauses, never to lost lease history.
	FS faultfs.FS

	// now is the coordinator-monotonic clock; tests inject their own.
	now func() time.Duration

	// feeds is the recorded-train cache of every local-fallback run:
	// experiments whose cells replay the same train share its recording.
	feeds *core.FeedCache

	mu       sync.Mutex
	wal      *journal.Journal
	walErr   error
	attempts map[core.CellKey]int
	leases   map[uint64]*lease
	leaseSeq uint64
	workers  map[string]*workerState
	cur      *activeSet
	finished bool
	stats    Stats
	// changed is closed, and replaced, whenever the lease table changes
	// in a way that can change what Lease answers or what the engine loop
	// must do. Waiters take it under mu before they look at the state, so
	// no change after their look goes unnoticed.
	changed chan struct{}
}

var _ core.CellExecutor = (*Coordinator)(nil)

// New builds a coordinator for the campaign.
func New(campaign, fingerprint string) *Coordinator {
	start := time.Now() // monotonic base: time.Since reads the monotonic clock
	return &Coordinator{
		Campaign:    campaign,
		Fingerprint: fingerprint,
		now:         func() time.Duration { return time.Since(start) },
		attempts:    map[core.CellKey]int{},
		leases:      map[uint64]*lease{},
		workers:     map[string]*workerState{},
		feeds:       core.NewFeedCache(core.DefaultFeedCacheSize),
		changed:     make(chan struct{}),
	}
}

// abandonedLocked returns the undone cells of st once no worker has
// called for the straggler window, counted from the coordinator's
// creation (clock zero) before the first call; nil before that. Cells
// never leased never expire into the retry-budget fallback, so without
// this a campaign whose workers are all gone would wait forever. Each
// cell is returned once: runLocal finalizes it, and the dispatch queue is
// emptied so that a worker coming back during that run cannot lease it
// again. Callers hold c.mu.
func (c *Coordinator) abandonedLocked(st *activeSet) []int {
	var last time.Duration
	for _, ws := range c.workers {
		last = max(last, ws.lastCall)
	}
	if st.remaining == 0 || c.now()-last < straggler {
		return nil
	}
	var idxs []int
	for i, done := range st.done {
		if !done {
			idxs = append(idxs, i)
		}
	}
	st.pending = st.pending[:0]
	return idxs
}

// OpenWAL attaches the lease-table write-ahead log in dir — the same
// CRC-framed format as the campaign journal, stamped with the campaign
// fingerprint. With resume, prior grant frames are replayed so each
// cell's dispatch-attempt count survives a coordinator crash: killing
// the coordinator does not reset the retry budget. A resume with no WAL
// on disk (the campaign's first distributed run) starts a fresh one.
func (c *Coordinator) OpenWAL(dir string, resume bool) error {
	fsys := c.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	path := filepath.Join(dir, WALFile)
	if !resume {
		j, err := journal.CreateFS(fsys, path, c.Fingerprint)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.wal = j
		c.mu.Unlock()
		return nil
	}
	j, rec, err := journal.ResumeFS(fsys, path, c.Fingerprint)
	if os.IsNotExist(err) {
		j, err = journal.CreateFS(fsys, path, c.Fingerprint)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.wal = j
		c.mu.Unlock()
		return nil
	}
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, raw := range rec.Records {
		var r walRecord
		if err := json.Unmarshal(raw, &r); err != nil {
			j.Close()
			return fmt.Errorf("dispatch: corrupt WAL record in %s: %w", path, err)
		}
		if r.T == "grant" || r.T == "local" {
			for _, k := range r.Keys {
				c.attempts[k]++
			}
		}
	}
	c.wal = j
	return nil
}

// Close releases the WAL. The coordinator must be idle.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wal == nil {
		return nil
	}
	err := c.wal.Close()
	c.wal = nil
	return err
}

// Finish marks the campaign complete: every held and every subsequent
// lease request is refused with the done error, which workers turn into
// a clean exit.
func (c *Coordinator) Finish() {
	c.mu.Lock()
	c.finished = true
	c.signalLocked()
	c.mu.Unlock()
}

// Stats returns a copy of the dispatch tallies.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Attempts reports the recorded dispatch-attempt count of a cell
// (including attempts replayed from the WAL on resume).
func (c *Coordinator) Attempts(k core.CellKey) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempts[k]
}

// WorkerCells reports the cells finalized per worker.
func (c *Coordinator) WorkerCells() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.workers))
	for name, ws := range c.workers {
		out[name] = ws.completed
	}
	return out
}

// signalLocked wakes everything waiting on the lease table: the engine
// loop and held lease requests. Callers hold c.mu.
func (c *Coordinator) signalLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// wakeup is signalLocked for callers that do not hold c.mu.
func (c *Coordinator) wakeup() {
	c.mu.Lock()
	c.signalLocked()
	c.mu.Unlock()
}

// worker returns (creating if needed) the state of a worker. Callers
// hold c.mu.
func (c *Coordinator) workerLocked(name string) *workerState {
	ws := c.workers[name]
	if ws == nil {
		ws = &workerState{}
		c.workers[name] = ws
	}
	return ws
}

func (c *Coordinator) observe(ev core.Event) {
	if c.Observer != nil {
		ev.Campaign = c.Campaign
		c.Observer.Observe(ev)
	}
}

// walAppendLocked journals one lease-table frame. Callers hold c.mu.
// Grant callers treat a failure as fatal for the grant; bookkeeping
// frames (expire, dup) record the first error and carry on — the
// campaign journal, not this WAL, is what result durability rests on.
func (c *Coordinator) walAppendLocked(r walRecord) error {
	if c.wal == nil {
		return nil
	}
	err := c.wal.Append(r)
	if err != nil && c.walErr == nil {
		c.walErr = err
	}
	return err
}

// ExecuteCells implements core.CellExecutor: it queues the cells for
// leasing and blocks until every cell is finalized (by a worker or the
// local fallback) or ctx is cancelled. One engine call at a time.
func (c *Coordinator) ExecuteCells(ctx context.Context, experiment string, cells []core.Cell, ids []core.CellID, done func(int, *capture.Stats, string) error) []error {
	st := &activeSet{
		experiment: experiment,
		cells:      cells,
		ids:        ids,
		keys:       make([]core.CellKey, len(cells)),
		byKey:      make(map[core.CellKey]int, len(cells)),
		finish:     done,
		done:       make([]bool, len(cells)),
		errs:       make([]error, len(cells)),
		eligible:   make([]time.Duration, len(cells)),
		inflight:   make([]int, len(cells)),
		remaining:  len(cells),
	}
	for i := range cells {
		st.keys[i] = core.KeyOf(experiment, cells[i], ids[i])
		st.byKey[st.keys[i]] = i
		st.pending = append(st.pending, i)
	}

	c.mu.Lock()
	if c.cur != nil {
		c.mu.Unlock()
		panic("dispatch: concurrent ExecuteCells")
	}
	c.cur = st
	c.signalLocked() // workers may already be waiting for cells
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		c.cur = nil
		// Leases of this set are void; late completions become duplicates.
		for id, l := range c.leases {
			if l.set == st {
				delete(c.leases, id)
			}
		}
		c.mu.Unlock()
		// Finish callbacks run outside the lock; wait for stragglers so
		// the engine can read its result slots race-free.
		st.wg.Wait()
	}()

	ticker := time.NewTicker(leaseTTL / 4)
	defer ticker.Stop()
	for {
		c.mu.Lock()
		changed := c.changed
		c.sweepLocked()
		locals, why := st.exhausted, "retry budget exhausted"
		st.exhausted = nil
		if len(locals) == 0 {
			if locals = c.abandonedLocked(st); locals != nil {
				why = fmt.Sprintf("no worker call for %s", straggler)
			}
		}
		rem := st.remaining
		c.mu.Unlock()

		if len(locals) > 0 {
			c.runLocal(ctx, st, locals, why)
			continue
		}
		if rem == 0 {
			return st.errs
		}
		if err := ctx.Err(); err != nil {
			c.mu.Lock()
			for i := range st.done {
				if !st.done[i] && st.errs[i] == nil {
					st.errs[i] = err
				}
			}
			c.mu.Unlock()
			return st.errs
		}
		select {
		case <-ctx.Done():
		case <-changed:
		case <-ticker.C:
		}
	}
}

// sweepLocked expires overdue leases and speculatively re-dispatches
// stragglers. Callers hold c.mu.
func (c *Coordinator) sweepLocked() {
	st := c.cur
	now := c.now()
	for id, l := range c.leases {
		if l.set != st {
			delete(c.leases, id)
			continue
		}
		if now >= l.deadline {
			if ws := c.workerLocked(l.worker); !ws.struck {
				ws.struck = true
				ws.expired++
				ws.quarantined = ws.expired >= strikeout
			}
			c.endLeaseLocked(l, "expired")
			continue
		}
		if !l.redisp && now-l.granted >= straggler {
			l.redisp = true
			n := 0
			for _, i := range l.cells {
				if !st.done[i] {
					st.pending = append(st.pending, i)
					n++
				}
			}
			if n > 0 {
				c.signalLocked()
				c.stats.Redispatched++
				c.observe(core.Event{Kind: core.EventRetry, Experiment: st.experiment,
					Worker: l.worker,
					Detail: fmt.Sprintf("straggler: lease %d open after %s; %d cells re-dispatched", l.id, straggler, n)})
			}
		}
	}
}

// endLeaseLocked ends live lease l of the active set before its
// completion: its cells that are not done and that no other lease covers
// go back to the queue, the WAL gets an expire frame, and an
// EventLeaseExpired says why. Callers hold c.mu.
func (c *Coordinator) endLeaseLocked(l *lease, why string) {
	st := l.set
	delete(c.leases, l.id)
	c.stats.Expired++
	lost := 0
	for _, i := range l.cells {
		st.inflight[i]--
		if !st.done[i] && st.inflight[i] <= 0 {
			c.requeueLocked(st, i)
			lost++
		}
	}
	c.walAppendLocked(walRecord{T: "expire", Lease: l.id, Worker: l.worker})
	c.observe(core.Event{Kind: core.EventLeaseExpired, Experiment: st.experiment,
		Worker: l.worker,
		Detail: fmt.Sprintf("lease %d %s (%d cells back in queue)", l.id, why, lost)})
}

// requeueLocked returns a cell to the dispatch queue with doubling
// backoff, or routes it to the local-fallback list once its dispatch
// budget is spent. Callers hold c.mu.
func (c *Coordinator) requeueLocked(st *activeSet, i int) {
	n := c.attempts[st.keys[i]]
	if n > retryBudget {
		st.exhausted = append(st.exhausted, i)
	} else {
		shift := n - 1 // at most retryBudget-1: the delay stays small
		if shift < 0 {
			shift = 0
		}
		st.eligible[i] = c.now() + requeueBackoff<<uint(shift)
		st.pending = append(st.pending, i)
	}
	c.signalLocked()
}

// Lease grants up to maxLease eligible cells to the worker. It never
// blocks: a nil, nil return means nothing is leasable right now, and the
// HTTP lease request of a worker that holds no live lease then waits in
// holdLease for that to change. Errors are typed: *FingerprintError
// (mismatched options), quarantine, campaign-done.
func (c *Coordinator) Lease(worker, fingerprint string) (*GrantedLease, error) {
	if fingerprint != c.Fingerprint {
		return nil, &FingerprintError{Want: c.Fingerprint, Got: fingerprint}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return nil, doneError{}
	}
	ws := c.workerLocked(worker)
	if ws.quarantined {
		return nil, &quarantinedError{worker: worker}
	}
	ws.lastCall, ws.struck = c.now(), false
	st := c.cur
	if st == nil {
		return nil, nil
	}
	// Expire before granting: a dead worker's cells become grantable the
	// moment a healthy worker asks, not a sweep tick later.
	c.sweepLocked()
	now := c.now()
	var take []int
	keep := st.pending[:0]
	for _, i := range st.pending {
		if st.done[i] {
			continue // lazily drop entries finished by another path
		}
		if len(take) < maxLease && now >= st.eligible[i] {
			take = append(take, i)
			continue
		}
		keep = append(keep, i)
	}
	st.pending = keep
	if len(take) == 0 {
		return nil, nil
	}
	keys := make([]core.CellKey, len(take))
	for bi, i := range take {
		keys[bi] = st.keys[i]
	}
	// The grant frame goes to the WAL before the lease exists: an
	// attempt the worker might observe must be an attempt a resumed
	// coordinator still counts.
	c.leaseSeq++
	id := c.leaseSeq
	if err := c.walAppendLocked(walRecord{T: "grant", Lease: id, Worker: worker,
		Exp: st.experiment, Keys: keys}); err != nil {
		st.pending = append(st.pending, take...)
		return nil, err
	}
	l := &lease{id: id, worker: worker, set: st, cells: take,
		granted: now, deadline: now + leaseTTL}
	c.leases[id] = l
	for _, i := range take {
		st.inflight[i]++
		c.attempts[st.keys[i]]++
	}
	ws.leases++
	c.stats.Granted++
	c.observe(core.Event{Kind: core.EventLease, Experiment: st.experiment, Worker: worker,
		Detail: fmt.Sprintf("lease %d: %d cells", id, len(take))})
	return &GrantedLease{ID: id, Experiment: st.experiment, Keys: keys,
		TTLMS: leaseTTL.Milliseconds()}, nil
}

// holdLease is Lease for a worker's lease request, which lists the
// leases the worker holds. It first ends every other live lease of that
// worker (release). A worker that still holds a live lease gets its
// answer at once. One that holds none waits while nothing is leasable:
// until Lease could answer differently it asks again whenever the lease
// table changed (cells queued or back in the queue, or the campaign
// finished), or the next backoff end, lease deadline or straggler age
// came. It returns nil, nil once leaseHold has passed since the call, or
// as soon as ctx ends. The hold is a span of real time, the instants it
// waits for are on the coordinator's clock.
func (c *Coordinator) holdLease(ctx context.Context, worker, fingerprint string, held []uint64) (*GrantedLease, error) {
	end := time.Now().Add(leaseHold)
	holds := c.release(worker, fingerprint, held)
	for ctx.Err() == nil {
		c.mu.Lock()
		changed := c.changed
		c.mu.Unlock()
		l, err := c.Lease(worker, fingerprint)
		wait := time.Until(end)
		if l != nil || err != nil || wait <= 0 || holds {
			return l, err
		}
		if d, ok := c.untilDue(); ok {
			wait = min(wait, d)
		}
		t := time.NewTimer(wait)
		select {
		case <-changed:
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
	}
	return nil, nil
}

// release ends, like an expiry but without a strike against the worker,
// every live lease of the active engine call that worker holds and does
// not list in held, and reports whether it holds one it lists. A worker
// makes one protocol call at a time, so when it asks for a lease it lists
// every grant it has received: an unlisted lease is a grant whose answer
// never reached it (the lease request was sent again) or one it could
// not resolve. Listed ids that are unknown or another worker's are
// ignored; a request with another campaign's fingerprint ends nothing.
func (c *Coordinator) release(worker, fingerprint string, held []uint64) (holds bool) {
	if fingerprint != c.Fingerprint {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range c.leases {
		if l.worker != worker || l.set != c.cur {
			continue
		}
		if slices.Contains(held, l.id) {
			holds = true
		} else {
			c.endLeaseLocked(l, "no longer held by its worker")
		}
	}
	return holds
}

// untilDue is how long until the earliest instant at which Lease answers
// differently with no call in between: a queued cell's backoff ends, or a
// lease of the active set reaches its deadline or, not yet re-dispatched,
// the straggler age. ok is false when nothing is due.
func (c *Coordinator) untilDue() (d time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.cur
	if st == nil {
		return 0, false
	}
	var next time.Duration
	due := func(at time.Duration) {
		if !ok || at < next {
			next, ok = at, true
		}
	}
	for _, i := range st.pending {
		if !st.done[i] {
			due(st.eligible[i])
		}
	}
	for _, l := range c.leases {
		if l.set == st {
			due(l.deadline)
			if !l.redisp {
				due(l.granted + straggler)
			}
		}
	}
	return max(next-c.now(), 0), ok
}

// Heartbeat extends the deadlines of every lease the worker holds. It
// does not signal the lease table's change: a held request whose timer
// runs to an extended deadline finds nothing and sets it again.
func (c *Coordinator) Heartbeat(worker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for _, l := range c.leases {
		if l.worker == worker {
			l.deadline = now + leaseTTL
		}
	}
	ws := c.workerLocked(worker)
	ws.lastCall, ws.struck = now, false
}

// Complete ingests a worker's outcomes for a lease. The first
// completion of a cell finalizes it through the engine's done callback;
// later copies — a straggler's late answer, a completion racing an
// expiry — are recorded into the campaign journal as duplicates, where
// the last-write-wins rule resolves them deterministically (cells are
// deterministic, so every copy is byte-identical). A cell of the lease
// without a successful record — one the worker could not measure, or
// left out — returns to the queue as soon as no other lease covers it.
// An expired (unknown) lease does not invalidate the data: finished work
// is finished work. The fingerprint is required: a completion without
// one is refused like a mismatch, and nothing of it is recorded.
func (c *Coordinator) Complete(worker, fingerprint string, leaseID uint64, recs []Record) error {
	if fingerprint != c.Fingerprint {
		return &FingerprintError{Want: c.Fingerprint, Got: fingerprint}
	}
	type fin struct {
		i   int
		out core.CellOutcome
	}
	var fins []fin
	var dups []Record

	c.mu.Lock()
	st := c.cur
	l := c.leases[leaseID]
	if l != nil && l.set == st {
		delete(c.leases, leaseID)
		for _, i := range l.cells {
			st.inflight[i]--
		}
	} else {
		l = nil
	}
	ws := c.workerLocked(worker)
	ws.lastCall, ws.struck = c.now(), false
	if st != nil {
		for _, r := range recs {
			if !r.Out.OK {
				continue
			}
			i, ok := st.byKey[r.Key]
			if !ok {
				continue // not this engine call's cell (stale experiment)
			}
			if st.done[i] {
				dups = append(dups, r)
				continue
			}
			st.done[i] = true
			st.remaining--
			fins = append(fins, fin{i: i, out: r.Out})
		}
		// Cells of the lease that came back failed — or not at all —
		// return to the queue as soon as no other lease covers them.
		if l != nil {
			for _, i := range l.cells {
				if !st.done[i] && st.inflight[i] <= 0 {
					c.requeueLocked(st, i)
				}
			}
		}
	} else {
		for _, r := range recs {
			if r.Out.OK {
				dups = append(dups, r)
			}
		}
	}
	ws.completed += uint64(len(fins))
	c.stats.Completed += uint64(len(fins))
	if len(dups) > 0 {
		c.stats.Duplicates += uint64(len(dups))
		keys := make([]core.CellKey, len(dups))
		for i, r := range dups {
			keys[i] = r.Key
		}
		c.walAppendLocked(walRecord{T: "dup", Lease: leaseID, Worker: worker, Keys: keys})
	}
	if st != nil {
		st.wg.Add(len(fins))
	}
	c.mu.Unlock()

	var err error
	for _, f := range fins {
		out := f.out
		if e := st.finish(f.i, &out.Stats, worker); e != nil {
			c.mu.Lock()
			st.errs[f.i] = e
			c.mu.Unlock()
			if err == nil {
				err = e
			}
		}
		st.wg.Done()
	}
	for _, r := range dups {
		if c.Journal != nil {
			if e := c.Journal.Record(r.Key, r.Out); e != nil && err == nil {
				err = e
			}
		}
	}
	c.wakeup()
	return err
}

// runLocal measures cells on the coordinator itself — those past their
// retry budget, or every undone cell once no worker calls any more (why
// names which): the guarantee that a campaign terminates even if every
// worker keeps losing leases or is gone.
func (c *Coordinator) runLocal(ctx context.Context, st *activeSet, idxs []int, why string) {
	cells := make([]core.Cell, len(idxs))
	ids := make([]core.CellID, len(idxs))
	keys := make([]core.CellKey, len(idxs))
	for bi, i := range idxs {
		cells[bi], ids[bi], keys[bi] = st.cells[i], st.ids[i], st.keys[i]
	}
	c.mu.Lock()
	c.walAppendLocked(walRecord{T: "local", Exp: st.experiment, Keys: keys})
	c.stats.LocalCells += uint64(len(idxs))
	c.mu.Unlock()
	c.observe(core.Event{Kind: core.EventRetry, Experiment: st.experiment, Worker: "coordinator",
		Detail: fmt.Sprintf("%s: running %d cells locally", why, len(idxs))})
	outs, errs := core.Run(ctx, cells, ids, core.Options{Workers: c.LocalWorkers, Feeds: c.feeds})
	for bi, i := range idxs {
		c.mu.Lock()
		if st.done[i] { // a worker raced us to it after all
			c.mu.Unlock()
			if errs[bi] == nil && c.Journal != nil {
				c.stats.Duplicates++
				c.Journal.Record(st.keys[i], outs[bi])
			}
			continue
		}
		st.done[i] = true
		st.remaining--
		if errs[bi] != nil {
			st.errs[i] = errs[bi]
			c.mu.Unlock()
			continue
		}
		st.wg.Add(1)
		c.mu.Unlock()
		if e := st.finish(i, &outs[bi].Stats, "coordinator"); e != nil {
			c.mu.Lock()
			st.errs[i] = e
			c.mu.Unlock()
		}
		st.wg.Done()
	}
}
