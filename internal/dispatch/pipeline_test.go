// Tests for the pipelined worker and the held list of its lease requests:
// the worker measures cells of several leases at once and asks for no
// lease while the coordinator has none for it, and a lease request ends
// the requesting worker's unlisted leases, and only those.
package dispatch

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// cellCampaign is a coordinator on httptest with one engine call of the
// cells of fig6.2-smp under o running in the background.
type cellCampaign struct {
	c    *Coordinator
	srv  *httptest.Server
	set  *experiments.CellSet
	col  *collector
	errs chan []error
}

func startCellCampaign(t *testing.T, o experiments.Options) *cellCampaign {
	t.Helper()
	fp, err := experiments.Fingerprint(o)
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	const expID = "fig6.2-smp"
	set, err := experiments.EnumerateCells(expID, o)
	if err != nil {
		t.Fatalf("EnumerateCells: %v", err)
	}
	cc := &cellCampaign{c: New("pipeline", fp), set: set, col: newCollector(), errs: make(chan []error, 1)}
	cc.srv = httptest.NewServer(newMux(cc.c))
	t.Cleanup(cc.srv.Close)
	go func() {
		cc.errs <- cc.c.ExecuteCells(context.Background(), expID, set.Cells, set.IDs, cc.col.done)
	}()
	waitActive(t, cc.c)
	return cc
}

// finish waits for the engine call, ends the campaign and waits for the
// worker; every cell must have been finalized once, by worker.
func (cc *cellCampaign) finish(t *testing.T, worker string, werr <-chan error) {
	t.Helper()
	for i, err := range <-cc.errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	cc.c.Finish()
	if err := <-werr; err != nil {
		t.Fatalf("worker: %v", err)
	}
	for i := 0; i < cc.set.Len(); i++ {
		if cc.col.counts[i] != 1 || cc.col.workers[i] != worker {
			t.Fatalf("cell %d: counts=%d worker=%q, want 1/%s", i, cc.col.counts[i], cc.col.workers[i], worker)
		}
	}
}

// placeholder is the outcome the tests' per-cell calls report instead of
// measuring: these tests are about the protocol, not the simulator.
var placeholder = core.CellOutcome{OK: true, Attempts: 1}

// TestWorkerMeasuresAcrossLeases: a worker with Parallelism 12 measures
// more than one lease's worth of cells at once. Each cell waits until
// more than maxLease cells are in flight, so a worker that measured one
// lease at a time would stall here for the fallback wait of every cell.
func TestWorkerMeasuresAcrossLeases(t *testing.T) {
	o := experiments.Options{Packets: 300, Reps: 3, Seed: 1, Rates: []float64{400, 800}}
	cc := startCellCampaign(t, o)
	if n := cc.set.Len(); n <= 2*maxLease {
		t.Fatalf("%d cells; the test needs more than two leases' worth", n)
	}
	var inflight, peak atomic.Int32
	over := make(chan struct{})
	var once sync.Once
	wo := o
	wo.Parallelism = 12
	w := &Worker{ID: "pw", BaseURL: cc.srv.URL, Options: wo}
	w.measure = func(ctx context.Context, _ core.Cell, _ core.CellID) (core.CellOutcome, error) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		if n > maxLease {
			once.Do(func() { close(over) })
		}
		select {
		case <-over:
		case <-time.After(10 * time.Second):
		}
		return placeholder, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	werr := make(chan error, 1)
	go func() { werr <- w.Run(ctx) }()
	cc.finish(t, w.ID, werr)
	if p := peak.Load(); p <= maxLease {
		t.Fatalf("at most %d cells in flight with Parallelism 12; want more than maxLease (%d)", p, maxLease)
	}
}

// protocolCall is one lease or complete call as the worker's transport
// saw it.
type protocolCall struct {
	verb   string
	status int
	at     time.Duration // answered, since the recorder was made
}

// callRecorder is a worker transport that notes every lease and complete
// call.
type callRecorder struct {
	start time.Time
	mu    sync.Mutex
	calls []protocolCall
}

func (r *callRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	verb := path.Base(req.URL.Path)
	if err == nil && req.Method == http.MethodPost && (verb == "lease" || verb == "complete") {
		r.mu.Lock()
		r.calls = append(r.calls, protocolCall{verb: verb, status: resp.StatusCode, at: time.Since(r.start)})
		r.mu.Unlock()
	}
	return resp, err
}

func (r *callRecorder) snapshot() []protocolCall {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]protocolCall(nil), r.calls...)
}

// TestWorkerWaitsForCompletionAfterImmediate204: a worker holding a lease
// that asks for another while nothing is leasable gets 204 at once, and
// then sends no lease request until that lease has completed.
func TestWorkerWaitsForCompletionAfterImmediate204(t *testing.T) {
	o := experiments.Options{Packets: 300, Reps: 1, Seed: 1, Rates: []float64{400}}
	cc := startCellCampaign(t, o)
	if n := cc.set.Len(); n > maxLease {
		t.Fatalf("%d cells; the test needs them in one lease", n)
	}
	rec := &callRecorder{start: time.Now()}
	gate := make(chan struct{})
	w := &Worker{ID: "gw", BaseURL: cc.srv.URL, Options: o, Client: &http.Client{Transport: rec}}
	w.measure = func(ctx context.Context, _ core.Cell, _ core.CellID) (core.CellOutcome, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return placeholder, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	werr := make(chan error, 1)
	go func() { werr <- w.Run(ctx) }()

	deadline := time.Now().Add(10 * time.Second)
	for len(rec.snapshot()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("calls %+v; want a grant and a second lease request", rec.snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	// A worker that asked again after the 204 would send a request every
	// round trip; give it many round trips' time to show.
	time.Sleep(100 * time.Millisecond)
	calls := rec.snapshot()
	if len(calls) != 2 || calls[0].verb != "lease" || calls[0].status != http.StatusOK ||
		calls[1].verb != "lease" || calls[1].status != http.StatusNoContent {
		t.Fatalf("%d calls while the lease's cells were blocked, the first %+v; want a grant and one 204",
			len(calls), calls[:min(len(calls), 4)])
	}
	if d := calls[1].at - calls[0].at; d >= leaseHold/2 {
		t.Fatalf("the 204 came %v after the grant; a worker holding a lease must be answered at once", d)
	}
	close(gate)
	cc.finish(t, w.ID, werr)
	all := rec.snapshot()
	if len(all) < 3 || all[2].verb != "complete" || all[2].status != http.StatusNoContent {
		t.Fatalf("calls %+v; want the completion right after the 204", all)
	}
}

// TestDroppedGrantReturnsOnNextRequest: a grant whose answer never reached
// its worker returns its cells to the queue on that worker's next lease
// request, at once on the coordinator's clock rather than after the
// straggler window, and without a strike against the worker: strikeout
// such grants do not quarantine it.
func TestDroppedGrantReturnsOnNextRequest(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	srv := httptest.NewServer(newMux(c))
	defer srv.Close()
	cells, ids := testCells(strikeout*maxLease + 1)
	col := newCollector()
	wait := execute(t, c, cells, ids, col)

	// Each request lists nothing: the previous grant's answer was lost.
	var last GrantedLease
	for i := 0; i <= strikeout; i++ {
		r := <-postLease(context.Background(), srv.Client(), srv.URL, c.Campaign, "w1", c.Fingerprint)
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("lease request %d: HTTP %d, err %v; want a grant", i, r.status, r.err)
		}
		last = r.lease
	}
	st := c.Stats()
	if st.Expired != strikeout || st.Redispatched != 0 {
		t.Fatalf("stats %+v; want the %d dropped grants ended and no straggler re-dispatch", st, strikeout)
	}
	c.mu.Lock()
	ws := *c.workers["w1"]
	requeued := len(c.cur.pending)
	c.mu.Unlock()
	if ws.expired != 0 || ws.quarantined {
		t.Fatalf("worker state %+v; ended grants must not count toward strikeout", ws)
	}
	if requeued != strikeout*maxLease {
		t.Fatalf("%d cells back in the queue, want the %d of the dropped grants", requeued, strikeout*maxLease)
	}

	completeAll(t, c, "w1", &last)
	clk.advance(requeueBackoff)
	for i := 0; i < strikeout; i++ {
		r := <-postLease(context.Background(), srv.Client(), srv.URL, c.Campaign, "w1", c.Fingerprint)
		if r.err != nil || r.status != http.StatusOK || len(r.lease.Keys) != maxLease {
			t.Fatalf("lease request after the backoff: HTTP %d, %+v, err %v; want %d returned cells",
				r.status, r.lease, r.err, maxLease)
		}
		completeAll(t, c, "w1", &r.lease)
	}
	wait()
	if clk.now() >= straggler {
		t.Fatalf("clock at %v", clk.now())
	}
	for i := range cells {
		if col.workers[i] != "w1" || col.counts[i] != 1 {
			t.Fatalf("cell %d: worker=%q counts=%d, want w1/1", i, col.workers[i], col.counts[i])
		}
	}
}

// TestForeignHeldEntryEndsNothing: a lease request that lists another
// worker's lease ends nothing: neither that lease, nor a third worker's
// lease it does not list.
func TestForeignHeldEntryEndsNothing(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	srv := httptest.NewServer(newMux(c))
	defer srv.Close()
	cells, ids := testCells(2*maxLease + 1)
	col := newCollector()
	wait := execute(t, c, cells, ids, col)

	a := mustLease(t, c, "w1")
	b := mustLease(t, c, "w3")
	r := <-postLease(context.Background(), srv.Client(), srv.URL, c.Campaign, "w2", c.Fingerprint, a.ID)
	if r.err != nil || r.status != http.StatusOK || len(r.lease.Keys) != 1 {
		t.Fatalf("w2's lease request: HTTP %d, %+v, err %v; want the one cell left", r.status, r.lease, r.err)
	}
	c.mu.Lock()
	_, liveA := c.leases[a.ID]
	_, liveB := c.leases[b.ID]
	c.mu.Unlock()
	if !liveA || !liveB || c.Stats().Expired != 0 {
		t.Fatalf("w1's lease live=%v, w3's live=%v, %d leases ended; want both live and none ended",
			liveA, liveB, c.Stats().Expired)
	}
	completeAll(t, c, "w1", a)
	completeAll(t, c, "w3", b)
	completeAll(t, c, "w2", &r.lease)
	wait()
	for i := range cells {
		want := []string{"w1", "w3", "w2"}[i/maxLease]
		if col.workers[i] != want || col.counts[i] != 1 {
			t.Fatalf("cell %d: worker=%q counts=%d, want %s/1", i, col.workers[i], col.counts[i], want)
		}
	}
}

// TestHeldListDecidesHold: with nothing leasable, a lease request that
// lists a live lease of its worker is answered 204 at once (an unknown id
// beside it changes nothing), while one that lists none ends that lease
// and, its worker now holding none, is held for leaseHold.
func TestHeldListDecidesHold(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	srv := httptest.NewServer(newMux(c))
	defer srv.Close()
	cells, ids := testCells(2)
	col := newCollector()
	wait := execute(t, c, cells, ids, col)

	a := mustLease(t, c, "w1")
	sent := time.Now()
	r := <-postLease(context.Background(), srv.Client(), srv.URL, c.Campaign, "w1", c.Fingerprint, 999, a.ID)
	if r.err != nil || r.status != http.StatusNoContent {
		t.Fatalf("request listing the live lease: HTTP %d, err %v; want 204", r.status, r.err)
	}
	if d := time.Since(sent); d >= leaseHold/2 {
		t.Fatalf("request listing a live lease answered after %v; want at once", d)
	}
	if got := c.Stats().Expired; got != 0 {
		t.Fatalf("%d leases ended by a request that listed them", got)
	}

	sent = time.Now()
	r = <-postLease(context.Background(), srv.Client(), srv.URL, c.Campaign, "w1", c.Fingerprint)
	if r.err != nil || r.status != http.StatusNoContent {
		t.Fatalf("request listing none: HTTP %d, err %v; want 204 after the hold", r.status, r.err)
	}
	if d := time.Since(sent); d < leaseHold {
		t.Fatalf("request listing none answered after %v, before the %v hold ran out", d, leaseHold)
	}
	if got := c.Stats().Expired; got != 1 {
		t.Fatalf("%d leases ended; want the unlisted one", got)
	}

	clk.advance(requeueBackoff)
	l := mustLease(t, c, "w1")
	if l == nil || len(l.Keys) != len(cells) {
		t.Fatalf("lease after the backoff = %+v, want the %d returned cells", l, len(cells))
	}
	completeAll(t, c, "w1", l)
	wait()
}
