// Tests for held lease requests: a request that finds nothing leasable
// waits at the coordinator and is answered by the change it waits for.
package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

// leaseReply is the answer to one lease request over HTTP.
type leaseReply struct {
	status int
	lease  GrantedLease
	err    error
}

// postLease sends one lease request for worker, listing the held leases,
// to the campaign's lease route in the background; its answer arrives on
// the returned channel.
func postLease(ctx context.Context, client *http.Client, base, campaign, worker, fp string, held ...uint64) <-chan leaseReply {
	ch := make(chan leaseReply, 1)
	go func() {
		var r leaseReply
		defer func() { ch <- r }()
		body, err := json.Marshal(leaseRequest{Worker: worker, Fingerprint: fp, Held: held})
		if err != nil {
			r.err = err
			return
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			base+"/api/campaigns/"+campaign+"/lease", bytes.NewReader(body))
		if err != nil {
			r.err = err
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			r.err = err
			return
		}
		defer resp.Body.Close()
		r.status = resp.StatusCode
		if r.status == http.StatusOK {
			r.err = json.NewDecoder(resp.Body).Decode(&r.lease)
		}
	}()
	return ch
}

// TestHeldLeaseGrantedWhenCellsQueue: a lease request on an idle
// coordinator is held, and the engine call that queues cells answers it
// with a grant — one request, with no poll interval before the worker
// learns of the cells.
func TestHeldLeaseGrantedWhenCellsQueue(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	srv := httptest.NewServer(newMux(c))
	defer srv.Close()

	sent := time.Now()
	reply := postLease(context.Background(), srv.Client(), srv.URL, c.Campaign, "w1", c.Fingerprint)
	waitHeld(t, c, "w1")
	cells, ids := testCells(3)
	col := newCollector()
	wait := execute(t, c, cells, ids, col)
	r := <-reply
	if r.err != nil || r.status != http.StatusOK || len(r.lease.Keys) != len(cells) {
		t.Fatalf("held lease request: HTTP %d, %+v, err %v; want a grant of all %d cells",
			r.status, r.lease, r.err, len(cells))
	}
	if d := time.Since(sent); d >= leaseHold {
		t.Fatalf("granted %v after the request, at the end of its hold: queueing the cells did not wake it", d)
	}
	completeAll(t, c, "w1", &r.lease)
	wait()
}

// TestFinishReleasesHeldRequests: Finish answers every held lease request
// with 410 at once, and a worker held at that moment ends cleanly.
func TestFinishReleasesHeldRequests(t *testing.T) {
	o := experiments.Options{Packets: 300, Reps: 1, Seed: 1}
	fp, err := experiments.Fingerprint(o)
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	c := New("held", fp)
	srv := httptest.NewServer(newMux(c))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var mu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	ids := []string{"w1", "w2"}
	errs := make(chan error, len(ids))
	for _, id := range ids {
		w := &Worker{ID: id, BaseURL: srv.URL, Options: o, Log: logf}
		go func() { errs <- w.Run(ctx) }()
	}
	sent := time.Now()
	raw := postLease(ctx, srv.Client(), srv.URL, c.Campaign, "raw", fp)
	for _, id := range append(ids, "raw") {
		waitHeld(t, c, id)
	}
	c.Finish()

	if r := <-raw; r.err != nil || r.status != http.StatusGone {
		t.Fatalf("held lease request after Finish: HTTP %d, err %v; want 410", r.status, r.err)
	}
	if d := time.Since(sent); d >= leaseHold {
		t.Fatalf("410 came %v after the request, at the end of its hold: Finish did not wake it", d)
	}
	for range ids {
		if err := <-errs; err != nil {
			t.Fatalf("held worker: %v", err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range ids {
		want := fmt.Sprintf("worker %s: campaign complete", id)
		found := false
		for _, line := range logs {
			found = found || line == want
		}
		if !found {
			t.Errorf("worker %s did not log %q; log: %q", id, want, logs)
		}
	}
}

// statusRecorder notes whether a handler wrote a status.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.ResponseWriter.Write(b)
}

// TestHeldLeaseReleasedOnHangUp: a worker that hangs up during the hold
// releases its handler at once — without an answer, which the handler
// would write only at the end of the hold — and leaves no goroutine
// behind.
func TestHeldLeaseReleasedOnHangUp(t *testing.T) {
	before := runtime.NumGoroutine()
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	mux := newMux(c)
	wrote := make(chan int, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		mux.ServeHTTP(rec, r)
		wrote <- rec.status
	}))

	ctx, hangUp := context.WithCancel(context.Background())
	reply := postLease(ctx, srv.Client(), srv.URL, c.Campaign, "w1", c.Fingerprint)
	waitHeld(t, c, "w1")
	hangUp()
	if r := <-reply; r.err == nil {
		t.Fatalf("the hung-up request was answered: HTTP %d", r.status)
	}
	if status := <-wrote; status != 0 {
		t.Fatalf("the handler answered HTTP %d to a worker that hung up; want it released unanswered", status)
	}
	srv.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the hang-up, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// runningClock is a coordinator clock that runs in real time from an
// instant the test can set: when a hold's timer fires, the instant it
// waited for has come on the coordinator's clock too.
type runningClock struct {
	start time.Time
	off   atomic.Int64
}

func newRunningClock() *runningClock { return &runningClock{start: time.Now()} }

func (r *runningClock) now() time.Duration {
	return time.Duration(r.off.Load()) + time.Since(r.start)
}

func (r *runningClock) set(d time.Duration) { r.off.Add(int64(d - r.now())) }

// TestHeldLeaseGetsCellsWhenDue: cells that come back while a lease
// request is held are granted to it once they are due, with no call and
// no signal at that instant: the hold's timer runs to the next backoff
// end, lease deadline or straggler age. The clock is set 20 ms short of
// a deadline or straggler age before the request, so each case waits at
// most that plus one 250 ms requeue backoff, well inside leaseHold.
func TestHeldLeaseGetsCellsWhenDue(t *testing.T) {
	cases := []struct {
		name string
		// before runs between w1's lease and w2's request; after, once w2's
		// request is held.
		before, after func(t *testing.T, c *Coordinator, clk *runningClock, l *GrantedLease)
		expired       uint64
	}{
		{name: "returned unmeasured",
			after: func(t *testing.T, c *Coordinator, clk *runningClock, l *GrantedLease) {
				if err := c.Complete("w1", c.Fingerprint, l.ID, nil); err != nil {
					t.Fatalf("Complete: %v", err)
				}
			}},
		{name: "expired", expired: 1,
			before: func(t *testing.T, c *Coordinator, clk *runningClock, l *GrantedLease) {
				clk.set(leaseTTL - 20*time.Millisecond)
			}},
		{name: "straggler",
			before: func(t *testing.T, c *Coordinator, clk *runningClock, l *GrantedLease) {
				for clk.now() < straggler-leaseTTL/2 {
					clk.set(clk.now() + leaseTTL/2)
					c.Heartbeat("w1")
				}
				clk.set(straggler - 20*time.Millisecond)
				c.Heartbeat("w1")
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newRunningClock()
			c := New("test-campaign", "fp-test")
			c.now = clk.now
			srv := httptest.NewServer(newMux(c))
			defer srv.Close()
			cells, ids := testCells(2)
			col := newCollector()
			wait := execute(t, c, cells, ids, col)
			l1 := mustLease(t, c, "w1")
			if l1 == nil || len(l1.Keys) != len(cells) {
				t.Fatalf("first lease = %+v, want all %d cells", l1, len(cells))
			}
			if tc.before != nil {
				tc.before(t, c, clk, l1)
			}
			sent := time.Now()
			reply := postLease(context.Background(), srv.Client(), srv.URL, c.Campaign, "w2", c.Fingerprint)
			waitHeld(t, c, "w2")
			if tc.after != nil {
				tc.after(t, c, clk, l1)
			}

			r := <-reply
			if r.err != nil || r.status != http.StatusOK || len(r.lease.Keys) != len(cells) {
				t.Fatalf("held lease request: HTTP %d, %+v, err %v; want the %d cells",
					r.status, r.lease, r.err, len(cells))
			}
			if d := time.Since(sent); d >= leaseHold {
				t.Fatalf("granted %v after the request, at the end of its hold: the hold did not wake when the cells fell due", d)
			}
			if got := c.Stats().Expired; got != tc.expired {
				t.Fatalf("expired leases = %d, want %d", got, tc.expired)
			}
			completeAll(t, c, "w2", &r.lease)
			wait()
			for i := range cells {
				if col.workers[i] != "w2" || col.counts[i] != 1 {
					t.Fatalf("cell %d: worker=%q counts=%d, want w2/1", i, col.workers[i], col.counts[i])
				}
			}
		})
	}
}
