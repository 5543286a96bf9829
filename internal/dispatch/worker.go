// Worker side of the dispatch protocol: a stateless measurement
// process that discovers the coordinator, verifies it is serving the
// same campaign (fingerprint match is mandatory — a worker measuring
// under different options would poison the journal), then leases,
// measures and completes cells until the coordinator says the campaign
// is done. One protocol goroutine keeps the worker's cell pool fed a
// lease ahead while its measuring goroutines drain it.
//
// Workers hold no shard assignment and no campaign state, so any number
// can join or die at any time. A worker enumerates each experiment's
// cell space locally from its own Options (experiments.EnumerateCells)
// and resolves leased cell keys against it; the fingerprint guarantees
// both sides enumerate identical cells.
package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// DefaultClientTimeout caps a whole HTTP exchange on the worker's
// default client — without it a slow-loris coordinator (or a fault
// injector impersonating one) can pin a worker forever.
const DefaultClientTimeout = 15 * time.Second

// Worker timings.
const (
	// pollInterval is the retry delay of every unanswered call, and of
	// discovery. A lease request that finds nothing to do is not retried
	// after it: the coordinator already held it (leaseHold).
	pollInterval = 200 * time.Millisecond
	// heartbeatInterval is the lease keep-alive interval; it must stay
	// at most a quarter of the coordinator's leaseTTL.
	heartbeatInterval = 1 * time.Second
	// connectWait bounds how long a starting worker waits for the
	// coordinator to answer discovery.
	connectWait = 60 * time.Second
	// callTimeout is the per-request context deadline layered under the
	// client timeout, and shorter than DefaultClientTimeout; one protocol
	// call never outlives it.
	callTimeout = 10 * time.Second
)

// errGone ends a worker once none of its calls has been answered for
// straggler, the coordinator's own no-worker window: the coordinator has
// exited, the normal end of a campaign whose final lease went to someone
// else.
var errGone = errors.New("dispatch: coordinator gone")

// defaultWorkerClient replaces the old http.DefaultClient fallback,
// which has no timeout at all.
var defaultWorkerClient = &http.Client{Timeout: DefaultClientTimeout}

// FingerprintMismatchError is the worker-side typed refusal: this
// worker's options hash to a different campaign than the coordinator is
// serving. The CLI maps it to exit code 2 (usage error) — it means the
// operator started the worker with misaligned flags.
type FingerprintMismatchError struct{ Mine, Theirs string }

func (e *FingerprintMismatchError) Error() string {
	return fmt.Sprintf("dispatch: refusing lease: coordinator campaign fingerprint %.12s… does not match this worker's options (%.12s…) — %s with the coordinator",
		e.Theirs, e.Mine, alignHint)
}

// Worker runs the lease-measure-complete loop against a coordinator.
type Worker struct {
	// ID names this worker in leases, events, and metrics.
	ID string
	// BaseURL is the coordinator's HTTP root, e.g. "http://host:8344".
	BaseURL string
	// Options are this worker's experiment options. Their fingerprint
	// must match the coordinator's; runtime knobs (Ctx, Journal,
	// Observer, Executor) are ignored. Parallelism is the number of
	// leased cells the worker measures at once, under the Workers
	// convention (0 is one).
	Options experiments.Options

	Client *http.Client // nil = a shared client with DefaultClientTimeout
	// Log receives progress lines; nil discards them.
	Log func(format string, args ...any)

	fingerprint string
	// campaign is the campaign id; a 404 re-discovers it while the
	// heartbeat goroutine reads it.
	campaign atomic.Pointer[string]
	sets     map[string]*experiments.CellSet
	// feeds is the recorded-train cache of every lease: experiments whose
	// cells replay the same train share its recording.
	feeds *core.FeedCache
	// measure is the pool's per-cell call; nil is measureCell. Tests
	// replace it.
	measure func(context.Context, core.Cell, core.CellID) (core.CellOutcome, error)
	// now is the liveness rule's clock; nil is time.Now. Tests replace it.
	now func() time.Time
	// answered is when a call was last answered.
	answered atomic.Pointer[time.Time]
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return defaultWorkerClient
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		w.Log(format, args...)
	}
}

// Run executes the worker loop until the campaign completes (nil), ctx
// is cancelled (ctx.Err()), or the coordinator refuses this worker
// (*FingerprintMismatchError, quarantine). A coordinator that has not
// answered any call for straggler after first contact is treated as a
// completed campaign: the normal shutdown race when the final lease was
// someone else's.
func (w *Worker) Run(ctx context.Context) error {
	var err error
	w.fingerprint, err = experiments.Fingerprint(w.Options)
	if err != nil {
		return err
	}
	w.sets = map[string]*experiments.CellSet{}
	w.feeds = core.NewFeedCache(core.DefaultFeedCacheSize)

	if err := w.awaitCoordinator(ctx); err != nil {
		return err
	}
	w.heard()
	w.logf("worker %s: joined campaign %s", w.ID, *w.campaign.Load())

	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx)

	err = w.leaseLoop(ctx)
	if err == errGone {
		w.logf("worker %s: no call answered for %s; coordinator gone, assuming campaign finished", w.ID, straggler)
		return nil
	}
	return err
}

// awaitCoordinator polls discovery until the coordinator answers,
// verifying the fingerprint before any lease is requested. A mismatch
// must be seen on consecutive polls before it is believed: a single
// corrupted response (injected or real) must not permanently turn away
// a correctly configured worker.
func (w *Worker) awaitCoordinator(ctx context.Context) error {
	deadline := time.Now().Add(connectWait)
	mismatches := 0
	for {
		info, err := w.discover(ctx)
		if err == nil {
			if info.Fingerprint != w.fingerprint {
				mismatches++
				if mismatches >= 3 {
					return &FingerprintMismatchError{Mine: w.fingerprint, Theirs: info.Fingerprint}
				}
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(pollInterval):
				}
				continue
			}
			w.campaign.Store(&info.Campaign)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dispatch: no coordinator at %s after %s: %w", w.BaseURL, connectWait, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollInterval):
		}
	}
}

func (w *Worker) discover(ctx context.Context) (*infoResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.BaseURL+"/api/dispatch", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dispatch: discovery: HTTP %d", resp.StatusCode)
	}
	var info infoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

func (w *Worker) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(heartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.post(ctx, "heartbeat", heartbeatRequest{Worker: w.ID}, nil)
		}
	}
}

// leaseLoop is the worker's protocol goroutine: it makes every lease and
// complete call, one at a time, while the pool measures the leased cells.
// While fewer than Parallelism+maxLease cells wait in the pool it asks
// for the next lease before it posts a completion; otherwise it first
// posts the completion of each lease whose last cell is measured. Every
// lease request lists the leases the worker holds, so the coordinator
// ends any other lease of this worker at once: a grant whose answer never
// arrived, or one the worker could not resolve. A worker that holds no
// lease waits inside its lease request, which the coordinator holds until
// cells are leasable or the campaign is complete; after a 204 (a hold
// that ran out) it asks again at once. One that holds a lease is answered
// 204 at once when nothing is leasable, and asks again only once one of
// its leases has completed. Each call is sent again until it is answered
// (call), so the loop ends only on a 410, a refusal, or errGone.
func (w *Worker) leaseLoop(ctx context.Context) error {
	p := w.startPool(ctx)
	defer p.close()
	mark := p.size + maxLease
	var held []*leased      // in grant order
	waitCompletion := false // a 204 came while holding a lease
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// A pass makes at most one lease request and posts at most one
		// completion, the request first while the queue is shallow: a
		// stream of grants never holds back the completions.
		ask := !waitCompletion && len(p.tasks) < mark
		if ask {
			ids := make([]uint64, len(held))
			for i, l := range held {
				ids[i] = l.id
			}
			var g GrantedLease
			status, err := w.call(ctx, "lease", leaseRequest{
				Worker: w.ID, Fingerprint: w.fingerprint, Held: ids,
			}, &g)
			if err != nil {
				return err
			}
			switch status {
			case http.StatusOK:
				if l, err := w.enqueue(p, &g); err != nil {
					// A grant corrupted in flight can name an experiment
					// this worker does not know. Left out of held, it ends
					// on the next lease request, like a grant never received.
					w.logf("worker %s: dropping lease %d: %v", w.ID, g.ID, err)
				} else {
					held = append(held, l)
				}
			case http.StatusNoContent:
				// Holding a lease, the answer came at once; holding none,
				// the coordinator has waited already.
				waitCompletion = len(held) > 0
			case http.StatusGone:
				w.logf("worker %s: campaign complete", w.ID)
				return nil
			case http.StatusConflict:
				return &FingerprintMismatchError{Mine: w.fingerprint}
			case http.StatusForbidden:
				return fmt.Errorf("dispatch: worker %s was quarantined by the coordinator", w.ID)
			default:
				return fmt.Errorf("dispatch: lease request: HTTP %d", status)
			}
		}
		if l := p.nextReady(); l != nil {
			held = slices.DeleteFunc(held, func(h *leased) bool { return h == l })
			waitCompletion = false
			if err := w.complete(ctx, l); err != nil {
				return err
			}
		} else if !ask {
			select {
			case <-ctx.Done():
			case <-p.wake:
			}
		}
	}
}

// complete posts the outcomes of a lease whose last cell is measured,
// until the coordinator answers. It accepts the outcomes of a lease that
// ended meanwhile, and a completion sent twice resolves last-write-wins.
func (w *Worker) complete(ctx context.Context, l *leased) error {
	var recs []Record
	for k, ok := range l.measured {
		if ok {
			recs = append(recs, l.recs[k])
		}
	}
	w.logf("worker %s: lease %d: %d cells measured, %d failed", w.ID, l.id, len(recs), len(l.recs)-len(recs))
	status, err := w.call(ctx, "complete", completeRequest{
		Worker: w.ID, Fingerprint: w.fingerprint, Lease: l.id, Records: recs,
	}, nil)
	if err != nil {
		return err
	}
	if status == http.StatusConflict {
		return &FingerprintMismatchError{Mine: w.fingerprint}
	}
	return nil
}

// leased is a lease the worker holds: granted and resolved, and not
// completed yet. The pool fills in its records as it measures the cells.
type leased struct {
	id       uint64
	recs     []Record // one slot per leased key
	measured []bool   // recs[k] holds a measured outcome
	left     int      // cells not measured yet; guarded by the pool's mu
}

// task is one leased cell waiting in the pool.
type task struct {
	l    *leased
	k    int // the cell's slot in l.recs
	cell core.Cell
	id   core.CellID
}

// pool is the worker's local cell pool: one FIFO of leased cells, drained
// by size measuring goroutines that each take the next waiting cell,
// whatever lease it belongs to, and measure it with one core.Run call on
// the worker's feed cache. A lease is ready for its completion once its
// last cell is measured.
type pool struct {
	size  int
	tasks chan task
	// wake tells the protocol goroutine that a cell left the queue or a
	// lease became ready.
	wake  chan struct{}
	stop  context.CancelFunc
	wg    sync.WaitGroup
	mu    sync.Mutex
	ready []*leased
}

// startPool starts the measuring goroutines: Parallelism of them, under
// the Workers convention (0 is one).
func (w *Worker) startPool(ctx context.Context) *pool {
	ctx, stop := context.WithCancel(ctx)
	n := max(core.Workers(w.Options.Parallelism), 1)
	p := &pool{size: n, stop: stop, wake: make(chan struct{}, 1),
		// A lease is asked for while fewer than size+maxLease cells wait,
		// so the queue never holds more than size+2·maxLease-1.
		tasks: make(chan task, n+2*maxLease)}
	measure := w.measure
	if measure == nil {
		measure = w.measureCell
	}
	p.wg.Add(n)
	for range n {
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				p.signal()
				if ctx.Err() != nil {
					continue // stopping: take no more cells
				}
				out, err := measure(ctx, t.cell, t.id)
				if core.IsCancel(err) {
					continue // the lease is never completed
				}
				p.mu.Lock()
				if err == nil {
					t.l.recs[t.k].Out, t.l.measured[t.k] = out, true
				}
				t.l.left--
				if t.l.left == 0 {
					p.ready = append(p.ready, t.l)
				}
				p.mu.Unlock()
				p.signal()
			}
		}()
	}
	return p
}

func (p *pool) signal() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// nextReady returns the lease that became ready first, or nil.
func (p *pool) nextReady() *leased {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ready) == 0 {
		return nil
	}
	l := p.ready[0]
	p.ready = p.ready[1:]
	return l
}

// close stops the pool: waiting cells are dropped, cells in flight finish.
func (p *pool) close() {
	p.stop()
	close(p.tasks)
	p.wg.Wait()
}

// measureCell is the pool's default per-cell call.
func (w *Worker) measureCell(ctx context.Context, c core.Cell, id core.CellID) (core.CellOutcome, error) {
	outs, errs := core.Run(ctx, []core.Cell{c}, []core.CellID{id}, core.Options{Feeds: w.feeds})
	return outs[0], errs[0]
}

// enqueue resolves a granted lease's keys against this worker's own
// enumeration and queues its cells in the pool. It fails, queueing
// nothing, on an experiment the worker cannot enumerate.
func (w *Worker) enqueue(p *pool, g *GrantedLease) (*leased, error) {
	set, err := w.cellSet(g.Experiment)
	if err != nil {
		return nil, err
	}
	l := &leased{id: g.ID, recs: make([]Record, len(g.Keys)), measured: make([]bool, len(g.Keys))}
	var ts []task
	for k, key := range g.Keys {
		i, ok := set.Find(key)
		if !ok {
			// Enumeration disagrees despite a matching fingerprint: a
			// bug, but one cell's worth — it counts failed, keep going.
			continue
		}
		l.recs[k].Key = core.KeyOf(g.Experiment, set.Cells[i], set.IDs[i])
		ts = append(ts, task{l: l, k: k, cell: set.Cells[i], id: set.IDs[i]})
	}
	l.left = len(ts)
	if len(ts) == 0 {
		p.mu.Lock()
		p.ready = append(p.ready, l)
		p.mu.Unlock()
	}
	for _, t := range ts {
		p.tasks <- t
	}
	return l, nil
}

// cellSet lazily enumerates (and caches) one experiment's cell space.
func (w *Worker) cellSet(id string) (*experiments.CellSet, error) {
	if s := w.sets[id]; s != nil {
		return s, nil
	}
	s, err := experiments.EnumerateCells(id, w.Options)
	if err != nil {
		return nil, err
	}
	w.sets[id] = s
	return s, nil
}

// call sends a lease or complete request until it is answered, and
// returns the answer's status. It waits pollInterval between tries, and a
// 404 first re-discovers the campaign id. Sending again is safe: a lease
// request sent again does not list the grant the first one may have
// received, so the coordinator ends that grant, and a completion sent
// again resolves last-write-wins. call fails only when ctx ends or, with
// errGone, once no call has been answered for straggler.
func (w *Worker) call(ctx context.Context, verb string, body, out any) (int, error) {
	for {
		status, err := w.post(ctx, verb, body, out)
		if err == nil {
			return status, nil
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		if status == http.StatusNotFound {
			// The campaign id may be stale — learned from a corrupted
			// discovery response, or the coordinator restarted with a
			// new campaign. The fingerprint still must match.
			if info, derr := w.discover(ctx); derr == nil && info.Fingerprint == w.fingerprint {
				w.campaign.Store(&info.Campaign)
			}
		}
		if w.clock().Sub(*w.answered.Load()) >= straggler {
			return 0, errGone
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(pollInterval):
		}
	}
}

// post sends one JSON request to a campaign-scoped endpoint and decodes
// the response into out when it is 200 and out is non-nil. A response is
// an answer when its status is below 500 and not 404, and a 200's body
// decodes; post returns an answer's status, and notes when it came. A
// transport error, a 5xx, a 404 or an undecodable body is an error, with
// the status of the response if one came.
func (w *Worker) post(ctx context.Context, verb string, body, out any) (int, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	url := fmt.Sprintf("%s/api/campaigns/%s/%s", w.BaseURL, *w.campaign.Load(), verb)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer drain(resp)
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusNotFound {
		return resp.StatusCode, fmt.Errorf("dispatch: %s: HTTP %d", verb, resp.StatusCode)
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("dispatch: %s: undecodable response: %w", verb, err)
		}
	}
	w.heard()
	return resp.StatusCode, nil
}

func (w *Worker) clock() time.Time {
	if w.now != nil {
		return w.now()
	}
	return time.Now()
}

// heard notes that the coordinator answered a call.
func (w *Worker) heard() {
	t := w.clock()
	w.answered.Store(&t)
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
