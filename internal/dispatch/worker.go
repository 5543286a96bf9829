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
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mix"
)

// DefaultClientTimeout caps a whole HTTP exchange on the worker's
// default client — without it a slow-loris coordinator (or a fault
// injector impersonating one) can pin a worker forever.
const DefaultClientTimeout = 15 * time.Second

// Worker timings and retry budget.
const (
	// pollInterval is the retry delay after discovery, a 404 or a failed
	// call. A lease request that finds nothing to do is not retried after
	// it: the coordinator already held it (leaseHold).
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
	// callRetries is how many times a lease/complete call is retried in
	// place (with backoff) before the caller's own miss-handling takes
	// over.
	callRetries = 3
	// retryBackoff is the base backoff between in-place retries; it
	// doubles per attempt with deterministic jitter.
	retryBackoff = 50 * time.Millisecond
	// shutdownGrace is how many consecutive transport errors a worker
	// tolerates after first contact before concluding the coordinator
	// exited (the normal end of a campaign whose final lease went to
	// someone else).
	shutdownGrace = 30
)

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
	campaign    string
	sets        map[string]*experiments.CellSet
	// feeds is the recorded-train cache of every lease: experiments whose
	// cells replay the same train share its recording.
	feeds *core.FeedCache
	// breaker gates every coordinator call; Run builds it.
	breaker *Breaker
	// measure is the pool's per-cell call; nil is measureCell. Tests
	// replace it.
	measure func(context.Context, core.Cell, core.CellID) (core.CellOutcome, error)
	// jitter is the splitmix64 state for retry jitter, seeded from ID so
	// two workers retrying the same outage do not march in lockstep.
	jitter uint64
	jmu    sync.Mutex
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
// (*FingerprintMismatchError, quarantine). A coordinator that vanishes
// after first contact is treated as a completed campaign: the normal
// shutdown race when the final lease was someone else's.
func (w *Worker) Run(ctx context.Context) error {
	var err error
	w.fingerprint, err = experiments.Fingerprint(w.Options)
	if err != nil {
		return err
	}
	w.sets = map[string]*experiments.CellSet{}
	w.feeds = core.NewFeedCache(core.DefaultFeedCacheSize)
	w.breaker = NewBreaker()
	w.jitter = mix.String(w.ID) | 1

	if err := w.awaitCoordinator(ctx); err != nil {
		return err
	}
	w.logf("worker %s: joined campaign %s", w.ID, w.campaign)

	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx)

	return w.leaseLoop(ctx)
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
			w.campaign = info.Campaign
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

// nextJitter draws a deterministic fraction in [0,1) from the worker's
// splitmix64 stream.
func (w *Worker) nextJitter() float64 {
	w.jmu.Lock()
	defer w.jmu.Unlock()
	z := mix.SplitMix64(w.jitter)
	w.jitter += mix.Golden
	return mix.Unit(z)
}

// retryDelay is the backoff before retry attempt (1-based): base·2^(a-1)
// scaled by a deterministic jitter factor in [0.5, 1.5).
func (w *Worker) retryDelay(attempt int) time.Duration {
	d := retryBackoff << uint(attempt-1)
	return time.Duration(float64(d) * (0.5 + w.nextJitter()))
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
// arrived, or a lease whose completion was given up on. A worker that
// holds no lease waits inside its lease request, which the coordinator
// holds until cells are leasable or the campaign is complete; after a 204
// (a hold that ran out) it asks again at once. One that holds a lease is
// answered 204 at once when nothing is leasable, and asks again only once
// one of its leases has completed. Transport errors after first contact
// are tolerated up to shutdownGrace consecutive failures — a coordinator
// that finished and exited stops answering, and that is a success, not a
// failure.
func (w *Worker) leaseLoop(ctx context.Context) error {
	p := w.startPool(ctx)
	defer p.close()
	mark := p.size + maxLease
	var held []*leased // in grant order
	misses := 0
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
			status, err := w.postRetry(ctx, "lease", leaseRequest{
				Worker: w.ID, Fingerprint: w.fingerprint, Held: ids,
			}, &g)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				misses++
				if misses >= shutdownGrace {
					w.logf("worker %s: coordinator gone; assuming campaign finished", w.ID)
					return nil
				}
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(pollInterval):
				}
				continue
			}
			misses = 0
			switch status {
			case http.StatusOK:
				l, err := w.enqueue(p, &g)
				if err != nil {
					return err
				}
				held = append(held, l)
			case http.StatusNoContent:
				// Holding a lease, the answer came at once; holding none,
				// the coordinator has waited already.
				waitCompletion = len(held) > 0
			case http.StatusGone:
				w.logf("worker %s: campaign complete", w.ID)
				return nil
			case http.StatusNotFound:
				// The campaign id may be stale — learned from a corrupted
				// discovery response, or the coordinator restarted with a
				// new campaign. Re-discover (fingerprint still must match)
				// and treat it as a miss.
				if info, derr := w.discover(ctx); derr == nil && info.Fingerprint == w.fingerprint {
					w.campaign = info.Campaign
				}
				misses++
				if misses >= shutdownGrace {
					w.logf("worker %s: campaign unknown to coordinator; giving up", w.ID)
					return nil
				}
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(pollInterval):
				}
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

// complete posts the outcomes of a lease whose last cell is measured. A
// completion that cannot be delivered is given up on: the worker's next
// lease request no longer lists the lease, so the coordinator returns its
// cells to the queue.
func (w *Worker) complete(ctx context.Context, l *leased) error {
	var recs []Record
	for k, ok := range l.measured {
		if ok {
			recs = append(recs, l.recs[k])
		}
	}
	w.logf("worker %s: lease %d: %d cells measured, %d failed", w.ID, l.id, len(recs), len(l.recs)-len(recs))
	status, err := w.postRetry(ctx, "complete", completeRequest{
		Worker: w.ID, Fingerprint: w.fingerprint, Lease: l.id, Records: recs,
	}, nil)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.logf("worker %s: completion of lease %d failed: %v", w.ID, l.id, err)
		return nil
	}
	if status == http.StatusConflict {
		return &FingerprintMismatchError{Mine: w.fingerprint}
	}
	return nil
}

// leased is a lease the worker holds: granted, and neither completed nor
// given up on. The pool fills in its records as it measures the cells.
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
// enumeration and queues its cells in the pool.
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

// post sends one JSON request to a campaign-scoped endpoint and decodes
// the response into out when it is 200 and out is non-nil. It returns
// the HTTP status; transport-level failures return an error. Every call
// runs under its own deadline and through the worker's circuit breaker:
// an open breaker fails fast with ErrBreakerOpen and no network
// traffic. Any response from the coordinator — even a 4xx — closes the
// breaker; transport errors, 5xx, and undecodable 200s open it.
func (w *Worker) post(ctx context.Context, verb string, body, out any) (int, error) {
	if !w.breaker.Allow() {
		return 0, fmt.Errorf("dispatch: %s: %w", verb, ErrBreakerOpen)
	}
	status, err := w.post1(ctx, verb, body, out)
	if err != nil || status >= 500 {
		w.breaker.Failure()
	} else {
		w.breaker.Success()
	}
	return status, err
}

func (w *Worker) post1(ctx context.Context, verb string, body, out any) (int, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	url := fmt.Sprintf("%s/api/campaigns/%s/%s", w.BaseURL, w.campaign, verb)
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
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("dispatch: %s: undecodable response: %w", verb, err)
		}
	}
	return resp.StatusCode, nil
}

// postRetry is post with bounded in-place retries: transport errors,
// 5xx statuses, and undecodable 200 bodies are retried with doubling,
// jittered backoff. Both calls that use it are idempotent on the
// coordinator — a replayed lease request grants a fresh lease and, not
// listing the first grant, ends it, and replayed completions resolve
// last-write-wins —
// so retrying after an ambiguous failure (request may or may not have
// been processed) is always safe.
func (w *Worker) postRetry(ctx context.Context, verb string, body, out any) (int, error) {
	var status int
	var err error
	for attempt := 0; ; attempt++ {
		status, err = w.post(ctx, verb, body, out)
		if err == nil && status < 500 {
			return status, nil
		}
		if err == nil {
			err = fmt.Errorf("dispatch: %s: HTTP %d", verb, status)
		}
		if attempt >= callRetries || ctx.Err() != nil {
			return status, err
		}
		select {
		case <-ctx.Done():
			return status, ctx.Err()
		case <-time.After(w.retryDelay(attempt + 1)):
		}
	}
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
