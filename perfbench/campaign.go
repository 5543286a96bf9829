package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/monitor"
)

const (
	// joinTimeout bounds the worker's discovery of the coordinator.
	joinTimeout = 30 * time.Second
	// sseDrain bounds how long the SSE stream may lag behind the end of
	// the campaign before the subscriber is cut off.
	sseDrain = 10 * time.Second
)

// campaign is one live distributed campaign in this process, wired the
// way `experiment -journal DIR -coordinator ADDR` wires it: the campaign
// journal and the lease WAL on disk, the dispatch coordinator and the
// monitor on one loopback HTTP server, one dispatch.Worker with default
// timings leasing the cells over a transport capped at one connection,
// and one SSE subscriber watching the campaign.
type campaign struct {
	plan    *plan
	dir, id string
	opts    experiments.Options // the plan's options wired to the journal, the hub and the coordinator
	obs     core.Observer       // the hub, or the traced wrapper in front of it
	traced  *tracedObserver     // nil when untraced

	journal    *experiments.Campaign
	coord      *dispatch.Coordinator
	hub        *monitor.Hub
	srv        *http.Server
	served     chan error
	transport  *http.Transport
	stopWorker context.CancelFunc
	workerDone chan struct{} // closed when the worker's Run has returned
	workerErr  error
	sse        *sseClient
	retries    atomic.Int64
}

// startCampaign sets a campaign up in dir: journal and lease WAL, the
// HTTP server, the campaign-start event, the worker's join and the SSE
// connection. With a tracer it wraps the journal, the hub's observer,
// the worker's transport and the SSE subscriber with timers.
func startCampaign(p *plan, dir string, tr *tracer) (_ *campaign, err error) {
	c := &campaign{plan: p, dir: dir, id: filepath.Base(dir)}
	defer func() {
		if err != nil {
			c.close() // c, not the nil result: it holds what was started
		}
	}()
	o := p.opts
	fp, err := experiments.Fingerprint(o)
	if err != nil {
		return nil, err
	}
	if c.journal, err = experiments.CreateCampaign(dir, o); err != nil {
		return nil, err
	}
	c.journal.OnAppendRetry(func(error, int) { c.retries.Add(1) })
	c.coord = dispatch.New(c.id, fp)
	c.coord.LocalWorkers = o.Parallelism
	if err := c.coord.OpenWAL(dir, false); err != nil {
		return nil, err
	}
	c.hub = monitor.NewHub()
	reg := monitor.NewRegistry()
	reg.Attach(c.hub)
	var journal core.CellJournal = c.journal
	c.obs = c.hub
	if tr != nil {
		c.traced = &tracedObserver{next: c.hub, tr: tr, published: map[core.CellKey]int{}}
		c.obs = c.traced
		journal = tracedJournal{next: c.journal, tr: tr}
	}
	c.journal.Observer = c.obs
	c.coord.Journal, c.coord.Observer = journal, c.obs

	mux := http.NewServeMux()
	c.coord.Register(mux)
	mux.Handle("/", monitor.NewServer(c.hub, reg).Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	c.served = make(chan error, 1)
	go func() { c.served <- c.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	c.obs.Observe(core.Event{Kind: core.EventCampaignStart, Campaign: c.id, Detail: fp})

	joined := make(chan struct{})
	c.transport = &http.Transport{MaxConnsPerHost: 1}
	var rt http.RoundTripper = &joinWatch{next: c.transport, joined: joined}
	if tr != nil {
		rt = &tracedTransport{next: rt, tr: tr}
	}
	wo := o
	wo.Ctx, wo.Journal, wo.Observer, wo.Executor = nil, nil, nil, nil
	w := &dispatch.Worker{ID: "perfbench-worker", BaseURL: base, Options: wo,
		Client: &http.Client{Timeout: dispatch.DefaultClientTimeout, Transport: rt}}
	ctx, cancel := context.WithCancel(context.Background())
	c.stopWorker = cancel
	c.workerDone = make(chan struct{})
	go func() {
		defer close(c.workerDone)
		c.workerErr = w.Run(ctx)
	}()
	select {
	case <-joined:
	case <-c.workerDone:
		return nil, fmt.Errorf("the worker stopped before joining: %v", c.workerErr)
	case <-time.After(joinTimeout):
		return nil, fmt.Errorf("the worker did not join within %s", joinTimeout)
	}

	var onCell func(core.CellKey)
	if c.traced != nil {
		onCell = c.traced.delivered
	}
	if c.sse, err = subscribe(base+"/api/campaigns/"+c.id+"/stream", onCell); err != nil {
		return nil, err
	}
	o.Journal, o.Observer, o.Executor = journal, c.obs, c.coord
	c.opts = o
	return c, nil
}

// finish publishes the end of the campaign, which ends the SSE stream.
func (c *campaign) finish() {
	c.obs.Observe(core.Event{Kind: core.EventCampaignFinish, Campaign: c.id})
}

// close stops everything the campaign started and waits for it. It is
// safe on a partly set-up campaign.
func (c *campaign) close() error {
	if c.sse != nil {
		c.sse.stop()
	}
	if c.coord != nil {
		c.coord.Finish()
	}
	if c.stopWorker != nil {
		c.stopWorker()
		<-c.workerDone
	}
	if c.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if c.srv.Shutdown(ctx) != nil {
			c.srv.Close()
		}
		cancel()
		<-c.served
	}
	if c.transport != nil {
		c.transport.CloseIdleConnections()
	}
	var errs []error
	if c.coord != nil {
		errs = append(errs, c.coord.Close())
	}
	if c.journal != nil {
		errs = append(errs, c.journal.Close())
	}
	return errors.Join(errs...)
}

// control is what one campaign's control plane did, read at its end.
type control struct {
	dispatch     dispatch.Stats
	published    uint64
	drops        uint64
	retries      int64
	journalBytes int64
	replay       time.Duration
}

// stop ends a campaign that rendered text and checks what it left
// behind: the SSE subscriber saw exactly one cell event per cell, the
// worker ended cleanly, and the journal resumes with every cell
// replayed and renders text again. Cells the subscriber never saw count
// as failed.
func (c *campaign) stop(text string, r *result) control {
	if err := c.sse.wait(sseDrain); err != nil {
		r.fail("SSE subscriber: %v", err)
	}
	ctl := control{dispatch: c.coord.Stats(), published: c.hub.Published(), retries: c.retries.Load()}
	for _, n := range c.hub.Drops() {
		ctl.drops += n
	}
	if err := c.close(); err != nil {
		r.fail("closing the campaign: %v", err)
	}
	if c.workerErr != nil && !errors.Is(c.workerErr, context.Canceled) {
		r.fail("worker: %v", c.workerErr)
	}
	seen, dup := 0, 0
	for _, n := range c.sse.cells {
		seen++
		if n > 1 {
			dup++
		}
	}
	if seen != c.plan.cells || dup > 0 {
		r.failed += max(c.plan.cells-seen, 0)
		r.fail("SSE delivered %d distinct cell events (%d repeated) for %d cells", seen, dup, c.plan.cells)
	}
	if fi, err := os.Stat(filepath.Join(c.dir, experiments.JournalFile)); err == nil {
		ctl.journalBytes = fi.Size()
	}
	var err error
	if ctl.replay, err = c.replay(text); err != nil {
		r.fail("journal replay: %v", err)
	}
	if err := os.RemoveAll(c.dir); err != nil {
		r.fail("removing %s: %v", c.dir, err)
	}
	return ctl
}

// replay resumes the finished journal and re-runs the experiments from
// it alone; it must replay every cell and render text. It returns the
// time both took: the read side of the journal.
func (c *campaign) replay(text string) (time.Duration, error) {
	t0 := time.Now()
	rc, err := experiments.ResumeCampaign(c.dir, c.plan.opts)
	if err != nil {
		return 0, err
	}
	defer rc.Close() // nothing is appended; the replay only reads
	if rc.Replayed != c.plan.cells {
		return 0, fmt.Errorf("resumed with %d of %d cells", rc.Replayed, c.plan.cells)
	}
	o := c.plan.opts
	o.Journal, o.Executor = rc, refuseCells{}
	scratch := newResult()
	got := c.plan.pass(o, nil, scratch)
	d := time.Since(t0)
	if len(scratch.problems) > 0 {
		return d, errors.New(scratch.problems[0])
	}
	if got != text {
		return d, fmt.Errorf("the replayed campaign renders differently at %s", firstDiff(got, text))
	}
	return d, nil
}

// refuseCells is the replay check's executor: a fully journaled campaign
// hands it no cell, so any cell it receives is an error.
type refuseCells struct{}

func (refuseCells) ExecuteCells(_ context.Context, experiment string, cells []core.Cell, _ []core.CellID, _ func(int, *capture.Stats, string) error) []error {
	errs := make([]error, len(cells))
	for i := range cells {
		errs[i] = fmt.Errorf("%s cell of %s is not in the journal", experiment, cells[i].Cfg.Name)
	}
	return errs
}

// window is one measured phase: host wall and CPU time and the Go
// runtime's accounting over it.
type window struct {
	wall, cpu     time.Duration
	before, after runtimeSnap
}

// livePass runs the plan once as a live campaign. The measured phase is
// the experiments themselves, from the first lease to the campaign's
// end; the set-up before it and the teardown and checks after it are
// outside.
func (p *plan) livePass(cfg config, n int, tr *tracer, r *result) (string, window, control, error) {
	var win window
	dir := filepath.Join(cfg.out, fmt.Sprintf("campaign-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		return "", win, control{}, err
	}
	c, err := startCampaign(p, dir, tr)
	if err != nil {
		return "", win, control{}, fmt.Errorf("setting the campaign up: %w", err)
	}
	win.before = readRuntime()
	t0, cpu0 := time.Now(), cpuTime()
	text := p.pass(c.opts, nil, r)
	c.finish()
	win.wall, win.cpu = time.Since(t0), cpuTime()-cpu0
	win.after = readRuntime()
	return text, win, c.stop(text, r), nil
}

// measureCampaign is the untraced run of the distributed workload: whole
// campaigns until their measured phases add up to cfg.seconds, reported
// by the median campaign's wall and CPU time, with a batch of setup
// probes before each. The output must match an undistributed run of the
// same experiments, as CI's distributed step checks.
func measureCampaign(p *plan, cfg config, setup *setupProber, r *result) error {
	var walls, cpus []float64
	var measured time.Duration
	var first string
	n := 0
	for ; n == 0 || measured < cfg.seconds; n++ {
		if err := setup.batch(); err != nil {
			return err
		}
		text, win, _, err := p.livePass(cfg, n, nil, r)
		if err != nil {
			return err
		}
		measured += win.wall
		walls = append(walls, win.wall.Seconds())
		cpus = append(cpus, win.cpu.Seconds())
		if n == 0 {
			first = text
		} else if text != first {
			r.failed += p.cells
			r.fail("campaign %d rendered different output than campaign 1", n+1)
		}
	}
	setRunMetrics(r, float64(p.packets), median(walls), median(cpus), n)
	checkUndistributed(p, first, p.pass(p.opts, nil, r), r)
	return nil
}

func checkUndistributed(p *plan, distributed, local string, r *result) {
	if distributed != local {
		r.failed += p.cells
		r.fail("the distributed campaign renders differently than an undistributed run at %s", firstDiff(distributed, local))
	}
}

// traceCampaign is the traced run of a distributed plan: pairs of an
// untraced and a traced campaign, then the same experiments undistributed
// through tracedExecutor — the output check's reference, and the source
// of the cell-level metrics. label names the span file.
func traceCampaign(p *plan, cfg config, r *result, label string) error {
	tr := newTracer()
	var plain, traced time.Duration
	var rt runtimeDelta
	var ctl []control
	var first string
	pairs := 0
	for start := time.Now(); pairs == 0 || time.Since(start) < cfg.seconds; pairs++ {
		text, win, _, err := p.livePass(cfg, 2*pairs, nil, r)
		if err != nil {
			return err
		}
		plain += win.wall
		rt.add(win.before, win.after, p.packets)
		tracedText, twin, c, err := p.livePass(cfg, 2*pairs+1, tr, r)
		if err != nil {
			return err
		}
		traced += twin.wall
		ctl = append(ctl, c)
		if pairs == 0 {
			first = text
		}
		if text != first || tracedText != first {
			r.failed += p.cells
			r.fail("pair %d: the traced and untraced campaigns rendered different output", pairs+1)
		}
	}
	x := &tracedExecutor{tr: tr, workers: p.opts.Parallelism}
	checkUndistributed(p, first, p.pass(p.opts, x, r), r)
	x.report(r)
	rt.report(r)
	reportControlPlane(tr.snapshot(), ctl, p, r)
	r.set("trace.overhead_pct", 100*(traced.Seconds()/plain.Seconds()-1), pairs)
	writeSpans(tr, cfg, label)
	return nil
}

// reportControlPlane derives the journal, dispatch and monitor metrics
// from the traced campaigns' spans and end-of-campaign tallies. Counts
// expected to be zero are totals; the others are per campaign.
func reportControlPlane(spans []span, ctl []control, p *plan, r *result) {
	n := len(ctl)
	var total control
	var replays []float64
	for _, c := range ctl {
		total.dispatch.Granted += c.dispatch.Granted
		total.dispatch.Completed += c.dispatch.Completed
		total.dispatch.Expired += c.dispatch.Expired
		total.dispatch.LocalCells += c.dispatch.LocalCells
		total.published += c.published
		total.drops += c.drops
		total.retries += c.retries
		total.journalBytes += c.journalBytes
		replays = append(replays, float64(c.replay.Nanoseconds())/1e6)
	}
	appends := durationsMS(spans, "journal.record")
	r.set("journal.append_p50_ms", median(appends), len(appends))
	r.setTail("journal.append_tail_ms", appends)
	r.set("journal.bytes_per_cell", float64(total.journalBytes)/float64(n*p.cells), n*p.cells)
	r.set("journal.retries", float64(total.retries), n)
	r.set("journal.replay_ms", median(replays), n)

	leases := durationsMS(spans, "dispatch.lease")
	completes := durationsMS(spans, "dispatch.complete")
	r.set("dispatch.lease_rtt_p50_ms", median(leases), len(leases))
	r.setTail("dispatch.lease_rtt_tail_ms", leases)
	r.set("dispatch.complete_rtt_p50_ms", median(completes), len(completes))
	r.setTail("dispatch.complete_rtt_tail_ms", completes)
	r.set("dispatch.empty_polls", (float64(len(leases))-float64(total.dispatch.Granted))/float64(n), n)
	if g := total.dispatch.Granted; g > 0 {
		r.set("dispatch.cells_per_lease", float64(total.dispatch.Completed)/float64(g), int(g))
	}
	r.set("dispatch.expired_leases", float64(total.dispatch.Expired), n)
	r.set("dispatch.local_cells", float64(total.dispatch.LocalCells), n)

	publishes := durationsMS(spans, "monitor.publish")
	r.set("monitor.publish_ns", median(publishes)*1e6, len(publishes))
	r.set("monitor.events", float64(total.published)/float64(n), n)
	lags := durationsMS(spans, "monitor.sse")
	r.set("monitor.sse_lag_p50_ms", median(lags), len(lags))
	r.setTail("monitor.sse_lag_tail_ms", lags)
	r.set("monitor.drops", float64(total.drops), n)
}

// joinWatch is the worker's transport: it reports the worker's join,
// its first successful discovery of the coordinator.
type joinWatch struct {
	next   http.RoundTripper
	once   sync.Once
	joined chan struct{}
}

func (j *joinWatch) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := j.next.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusOK && req.Method == http.MethodGet && req.URL.Path == "/api/dispatch" {
		j.once.Do(func() { close(j.joined) })
	}
	return resp, err
}

// tracedTransport times the worker's lease and complete round trips, up
// to the response headers. The lease id is each span's identifier.
type tracedTransport struct {
	next http.RoundTripper
	tr   *tracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	verb := path.Base(req.URL.Path)
	if req.Method != http.MethodPost || (verb != "lease" && verb != "complete") {
		return t.next.RoundTrip(req)
	}
	id := ""
	if verb == "complete" {
		id = requestLease(req)
	}
	sp := t.tr.begin("dispatch."+verb, id, -1)
	resp, err := t.next.RoundTrip(req)
	t.tr.end(sp)
	if err != nil || verb != "lease" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var l struct {
		Lease uint64 `json:"lease"`
	}
	if json.Unmarshal(body, &l) == nil {
		t.tr.setID(sp, fmt.Sprintf("lease-%d", l.Lease))
	}
	return resp, nil
}

// requestLease reads the lease id out of a complete request's body.
func requestLease(req *http.Request) string {
	if req.GetBody == nil {
		return ""
	}
	body, err := req.GetBody()
	if err != nil {
		return ""
	}
	defer body.Close()
	var c struct {
		Lease uint64 `json:"lease"`
	}
	if json.NewDecoder(body).Decode(&c) != nil {
		return ""
	}
	return fmt.Sprintf("lease-%d", c.Lease)
}

// tracedJournal times every cell record appended to the campaign journal,
// by the engine and by the coordinator alike.
type tracedJournal struct {
	next core.CellJournal
	tr   *tracer
}

func (j tracedJournal) Lookup(k core.CellKey) (core.CellOutcome, bool) { return j.next.Lookup(k) }

func (j tracedJournal) Record(k core.CellKey, out core.CellOutcome) error {
	sp := j.tr.begin("journal.record", cellKey(k), -1)
	defer j.tr.end(sp)
	return j.next.Record(k, out)
}

// tracedObserver sits in front of the hub: it times every publish and
// remembers each cell event's publish span, so the SSE subscriber can
// record the delivery lag as a child span.
type tracedObserver struct {
	next      core.Observer
	tr        *tracer
	mu        sync.Mutex
	published map[core.CellKey]int
}

func (o *tracedObserver) Observe(ev core.Event) {
	if ev.Kind != core.EventCell {
		sp := o.tr.begin("monitor.publish", ev.Kind.String(), -1)
		o.next.Observe(ev)
		o.tr.end(sp)
		return
	}
	k := core.CellKey{Experiment: ev.Experiment, Point: ev.Point, System: ev.System, Rep: ev.Rep}
	sp := o.tr.begin("monitor.publish", cellKey(k), -1)
	o.mu.Lock()
	o.published[k] = sp // before publishing: the subscriber may see it first
	o.mu.Unlock()
	o.next.Observe(ev)
	o.tr.end(sp)
}

// delivered records the lag from a cell event's publish to its arrival
// at the SSE subscriber.
func (o *tracedObserver) delivered(k core.CellKey) {
	at := o.tr.now()
	o.mu.Lock()
	sp, ok := o.published[k]
	o.mu.Unlock()
	if ok {
		o.tr.add(span{Name: "monitor.sse", ID: cellKey(k), Parent: sp, Start: o.tr.startOf(sp), End: at})
	}
}

// sseClient follows a campaign's SSE stream and counts its cell events.
type sseClient struct {
	cancel    context.CancelFunc
	transport *http.Transport
	done      chan struct{} // closed when the reader has returned
	cells     map[core.CellKey]int
	err       error
}

// subscribe opens the stream; it returns once the server has answered.
func subscribe(url string, onCell func(core.CellKey)) (*sseClient, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &sseClient{cancel: cancel, transport: &http.Transport{}, done: make(chan struct{}),
		cells: map[core.CellKey]int{}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: s.transport}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("SSE stream: HTTP %d", resp.StatusCode)
	}
	go s.read(resp.Body, onCell)
	return s, nil
}

func (s *sseClient) read(body io.ReadCloser, onCell func(core.CellKey)) {
	defer close(s.done)
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var ev struct {
			Kind       string `json:"kind"`
			Experiment string `json:"experiment"`
			System     string `json:"system"`
			Point      uint64 `json:"point"`
			Rep        int    `json:"rep"`
		}
		if err := json.Unmarshal(data, &ev); err != nil {
			s.err = fmt.Errorf("undecodable event: %w", err)
			return
		}
		if ev.Kind != core.EventCell.String() {
			continue
		}
		k := core.CellKey{Experiment: ev.Experiment, Point: ev.Point, System: ev.System, Rep: ev.Rep}
		if onCell != nil {
			onCell(k)
		}
		s.cells[k]++
	}
	if err := sc.Err(); err != nil && !errors.Is(err, context.Canceled) {
		s.err = err
	}
}

// wait waits up to d for the stream to end, as it does after the
// campaign-finish event, then stops the subscriber.
func (s *sseClient) wait(d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.done:
	case <-t.C:
		s.stop()
		return fmt.Errorf("the stream did not end within %s of the campaign", d)
	}
	s.stop()
	return s.err
}

// stop cuts the stream and waits for the reader.
func (s *sseClient) stop() {
	s.cancel()
	<-s.done
	s.transport.CloseIdleConnections()
}
