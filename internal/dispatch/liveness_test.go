// Tests for the worker's one liveness rule and the coordinator's strike
// per outage: a worker sends an unanswered call again after pollInterval
// and ends only on a 410 or once no call has been answered for
// straggler; a grant it cannot resolve is dropped, not fatal; and the
// leases that one silence expires are one strike.
package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netchaos"
)

// partition is a worker transport that fails the first n requests after
// discovery, like a netchaos partition epoch.
type partition struct{ left atomic.Int64 }

func (p *partition) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/api/dispatch" && p.left.Add(-1) >= 0 {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("partitioned")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestWorkerSurvivesPartition: a worker whose transport fails a netchaos
// partition epoch of consecutive requests right after it joins keeps
// asking, and measures every cell; the coordinator runs none locally.
func TestWorkerSurvivesPartition(t *testing.T) {
	o := experiments.Options{Packets: 300, Reps: 1, Seed: 1, Rates: []float64{400, 800}}
	cc := startCellCampaign(t, o)
	tr := &partition{}
	tr.left.Store(int64(netchaos.DefaultPlan(0).EpochLen))
	w := &Worker{ID: "pw", BaseURL: cc.srv.URL, Options: o, Client: &http.Client{Transport: tr}}
	w.measure = func(context.Context, core.Cell, core.CellID) (core.CellOutcome, error) {
		return placeholder, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	werr := make(chan error, 1)
	go func() { werr <- w.Run(ctx) }()

	select {
	case errs := <-cc.errs:
		cc.errs <- errs
	case err := <-werr:
		t.Fatalf("worker ended with %v after %d of the partition's requests, before the campaign finished",
			err, int64(netchaos.DefaultPlan(0).EpochLen)-max(tr.left.Load(), 0))
	}
	cc.finish(t, w.ID, werr)
	if n := cc.c.Stats().LocalCells; n != 0 {
		t.Fatalf("coordinator ran %d cells locally", n)
	}
}

// TestWorkerEndsAfterStragglerSilence: on an injected clock, a worker
// whose coordinator stops answering keeps asking until straggler has
// passed since the last answer, then ends with nil. An answer after
// joining moves that instant, so the window is not counted from the join.
func TestWorkerEndsAfterStragglerSilence(t *testing.T) {
	o := experiments.Options{Packets: 300, Reps: 1, Seed: 1, Rates: []float64{400}}
	fp, err := experiments.Fingerprint(o)
	if err != nil {
		t.Fatal(err)
	}
	var up atomic.Bool
	var answered, refused atomic.Int64
	up.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/dispatch", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, infoResponse{Campaign: "c", Fingerprint: fp})
	})
	mux.HandleFunc("POST /api/campaigns/c/{verb}", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond) // a held lease request, shortened
		if !up.Load() {
			refused.Add(1)
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		answered.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var clock atomic.Int64
	w := &Worker{ID: "lw", BaseURL: srv.URL, Options: o}
	w.now = func() time.Time { return time.Unix(0, clock.Load()) }
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	werr := make(chan error, 1)
	go func() { werr <- w.Run(ctx) }()

	waitFor := func(n *atomic.Int64, want int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for n.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("the worker sent %d calls, want %d", n.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	running := func(d time.Duration) {
		t.Helper()
		select {
		case err := <-werr:
			t.Fatalf("worker ended with %v at %v; the last answer came at %v", err, time.Duration(clock.Load()), 10*time.Second)
		case <-time.After(d):
		}
	}
	waitFor(&answered, 1)
	clock.Store(int64(10 * time.Second))
	waitFor(&answered, answered.Load()+2)
	up.Store(false)
	// Two refused lease requests: no answer is on its way to the worker.
	waitFor(&refused, refused.Load()+2)
	clock.Store(int64(10*time.Second + straggler - time.Millisecond))
	running(3 * pollInterval)
	clock.Store(int64(10*time.Second + straggler))
	select {
	case err := <-werr:
		if err != nil {
			t.Fatalf("worker ended with %v, want nil", err)
		}
	case <-time.After(10 * pollInterval):
		t.Fatalf("worker still running %v after the last answer", straggler)
	}
}

// TestUnresolvableGrantDropped: a 200 grant that names an experiment the
// worker cannot enumerate (a corrupted grant) does not end the worker, and
// its next lease request does not list that grant.
func TestUnresolvableGrantDropped(t *testing.T) {
	o := experiments.Options{Packets: 300, Reps: 1, Seed: 1, Rates: []float64{400}}
	fp, err := experiments.Fingerprint(o)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var reqs []leaseRequest
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/dispatch", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, infoResponse{Campaign: "c", Fingerprint: fp})
	})
	mux.HandleFunc("POST /api/campaigns/c/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /api/campaigns/c/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("lease request: %v", err)
		}
		mu.Lock()
		reqs = append(reqs, req)
		n := len(reqs)
		mu.Unlock()
		if n > 1 {
			w.WriteHeader(http.StatusGone)
			return
		}
		// fig6.8 with one byte flipped as netchaos's MalformedBody does.
		writeJSON(w, http.StatusOK, GrantedLease{ID: 7, Experiment: "fig6.b",
			Keys: []core.CellKey{{Experiment: "fig6.b", System: "swan"}}, TTLMS: leaseTTL.Milliseconds()})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	w := &Worker{ID: "uw", BaseURL: srv.URL, Options: o}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker ended with %v after an unresolvable grant", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reqs) != 2 || slices.Contains(reqs[1].Held, 7) {
		t.Fatalf("lease requests %+v; want a second one that does not list lease 7", reqs)
	}
}

// TestOneStrikePerOutage: a worker holding three leases that goes silent
// past leaseTTL takes one strike, while Stats.Expired counts every lease;
// once it has called again, the next silence is a second strike.
func TestOneStrikePerOutage(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	cells, ids := testCells(3 * maxLease)
	col := newCollector()
	wait := execute(t, c, cells, ids, col)

	strikes := func(wantExpired uint64, want int) {
		t.Helper()
		c.mu.Lock()
		c.sweepLocked()
		ws := *c.workers["w1"]
		c.mu.Unlock()
		if got := c.Stats().Expired; got != wantExpired || ws.expired != want || ws.quarantined {
			t.Fatalf("%d leases expired, worker state %+v; want %d expired and %d strikes, not quarantined",
				got, ws, wantExpired, want)
		}
	}
	var ls []*GrantedLease
	for range 3 {
		ls = append(ls, mustLease(t, c, "w1"))
	}
	clk.advance(leaseTTL)
	strikes(3, 1)
	clk.advance(leaseTTL) // still silent: the same outage
	strikes(3, 1)

	clk.advance(requeueBackoff)
	c.Heartbeat("w1")
	l := mustLease(t, c, "w1")
	if l == nil {
		t.Fatal("no lease after the backoff")
	}
	clk.advance(leaseTTL)
	strikes(4, 2)

	for _, l := range append(ls, l) {
		completeAll(t, c, "w1", l)
	}
	wait()
	for i := range cells {
		if col.counts[i] != 1 || col.workers[i] != "w1" {
			t.Fatalf("cell %d: counts=%d worker=%q, want 1/w1", i, col.counts[i], col.workers[i])
		}
	}
}
