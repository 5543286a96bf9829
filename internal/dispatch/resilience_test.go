// Tests for the resilient-transport layer: the circuit breaker, the
// worker's bounded in-place retries, the default client timeout, and
// the coordinator's request validation.
package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/mix"
)

// TestBreakerLifecycle walks the breaker through its full state machine
// on an injected clock: closed → open at the threshold → fail-fast
// during cooldown → half-open single probe → closed on probe success,
// and re-open on probe failure.
func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker()
	b.now = func() time.Time { return now }
	fail := func(n int) {
		for i := 0; i < n; i++ {
			b.Failure()
		}
	}

	// Below the threshold the breaker stays closed.
	fail(breakerThreshold - 1)
	if !b.Allow() || b.State() != "closed" {
		t.Fatalf("breaker opened below threshold: %s", b.State())
	}
	// A success resets the failure run.
	b.Success()
	fail(breakerThreshold - 1)
	if b.State() != "closed" {
		t.Fatal("success did not reset the failure run")
	}
	// The threshold run opens it.
	b.Failure()
	if b.State() != "open" || b.Trips() != 1 {
		t.Fatalf("state=%s trips=%d after threshold run, want open/1", b.State(), b.Trips())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call inside the cooldown")
	}
	// Cooldown elapsed: exactly one probe goes out.
	now = now.Add(breakerCooldown)
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe failure re-opens immediately, counting a new trip.
	b.Failure()
	if b.State() != "open" || b.Trips() != 2 {
		t.Fatalf("failed probe: state=%s trips=%d, want open/2", b.State(), b.Trips())
	}
	// Next cooldown, probe succeeds: closed and fully reset.
	now = now.Add(breakerCooldown)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Success()
	if b.State() != "closed" || !b.Allow() {
		t.Fatalf("successful probe left breaker %s", b.State())
	}
}

// newTestWorker builds a worker ready for direct post and postRetry
// calls, with the state Run would set up.
func newTestWorker(url string) *Worker {
	w := &Worker{ID: "w", BaseURL: url, campaign: "c", breaker: NewBreaker()}
	w.jitter = mix.String(w.ID) | 1
	return w
}

// TestWorkerDefaultClientHasTimeout: a worker with no explicit Client
// must not fall back to a timeout-less client (the old
// http.DefaultClient behavior a slow coordinator could pin forever).
func TestWorkerDefaultClientHasTimeout(t *testing.T) {
	w := &Worker{ID: "w"}
	c := w.client()
	if c.Timeout != DefaultClientTimeout {
		t.Fatalf("default client timeout = %v, want %v", c.Timeout, DefaultClientTimeout)
	}
	if c == http.DefaultClient {
		t.Fatal("worker fell back to http.DefaultClient")
	}
}

// TestTimingRelations pins the relations the protocol's timings rely on:
// a worker heartbeats at least four times per lease TTL, so one lost
// heartbeat never expires a live lease; one call's deadline ends before
// the client timeout cuts the exchange off; and a held lease request is
// answered well before the call's deadline.
func TestTimingRelations(t *testing.T) {
	if heartbeatInterval > leaseTTL/4 {
		t.Errorf("heartbeat interval %v exceeds a quarter of the lease TTL %v", heartbeatInterval, leaseTTL)
	}
	if callTimeout >= DefaultClientTimeout {
		t.Errorf("per-call deadline %v is not shorter than the client timeout %v", callTimeout, DefaultClientTimeout)
	}
	if leaseHold >= callTimeout {
		t.Errorf("lease hold %v is not shorter than the per-call deadline %v", leaseHold, callTimeout)
	}
}

// TestPostRetrySurvivesTransientFailures: a call that hits transient
// 5xx responses succeeds once the coordinator recovers, within the
// retry budget and without surfacing the intermediate failures.
func TestPostRetrySurvivesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"campaign":"c","fingerprint":"f"}`))
	}))
	defer srv.Close()

	w := newTestWorker(srv.URL)
	var out infoResponse
	status, err := w.postRetry(context.Background(), "lease", heartbeatRequest{Worker: "w"}, &out)
	if err != nil || status != http.StatusOK {
		t.Fatalf("postRetry = %d, %v after recovery", status, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 failures + success)", got)
	}
	if out.Campaign != "c" {
		t.Fatalf("decoded %+v", out)
	}
}

// TestPostRetryBudgetExhausted: a persistently failing coordinator
// exhausts the bounded budget — 1 initial + callRetries attempts — and
// the final error surfaces.
func TestPostRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	w := newTestWorker(srv.URL)
	status, err := w.postRetry(context.Background(), "lease", heartbeatRequest{Worker: "w"}, nil)
	if err == nil {
		t.Fatalf("postRetry succeeded against a dead coordinator (status %d)", status)
	}
	if got := calls.Load(); got != 1+callRetries {
		t.Fatalf("server saw %d calls, want %d (1 + %d retries)", got, 1+callRetries, callRetries)
	}
}

// TestBreakerFailsFastWithoutTraffic: once the worker's breaker opens,
// further calls return ErrBreakerOpen without touching the network.
func TestBreakerFailsFastWithoutTraffic(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	w := newTestWorker(srv.URL)
	w.breaker.now = func() time.Time { return time.Unix(0, 0) } // the cooldown never ends
	ctx := context.Background()
	for i := 0; i < breakerThreshold; i++ {
		if _, err := w.post(ctx, "lease", heartbeatRequest{Worker: "w"}, nil); err != nil {
			t.Fatalf("call %d: transport error %v (5xx should return status)", i, err)
		}
	}
	before := calls.Load()
	_, err := w.post(ctx, "lease", heartbeatRequest{Worker: "w"}, nil)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("post with open breaker = %v, want ErrBreakerOpen", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker still sent network traffic")
	}
}

// TestRetryDelayJitterDeterministic: the retry backoff doubles per
// attempt with a jitter factor in [0.5, 1.5), and two workers with
// different IDs draw different jitter streams.
func TestRetryDelayJitterDeterministic(t *testing.T) {
	mk := func(id string) *Worker {
		w := &Worker{ID: id}
		w.jitter = mix.String(id) | 1
		return w
	}
	a, b := mk("w1"), mk("w1")
	var diverged bool
	for attempt := 1; attempt <= 6; attempt++ {
		da, db := a.retryDelay(attempt), b.retryDelay(attempt)
		if da != db {
			t.Fatalf("same worker ID, attempt %d: %v vs %v", attempt, da, db)
		}
		base := retryBackoff << uint(attempt-1)
		if da < base/2 || da >= base*3/2 {
			t.Fatalf("attempt %d delay %v outside [%v, %v)", attempt, da, base/2, base*3/2)
		}
		if da != mk("w2").retryDelay(attempt) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different worker IDs drew identical jitter streams")
	}
}

// badRequests are garbage request bodies — malformed JSON, unknown
// fields, oversized bodies, corrupt cell keys — that the coordinator must
// refuse with 400.
var badRequests = []struct {
	name, verb, body string
}{
	{"malformed json", "lease", `{"worker": `},
	{"unknown field", "lease", `{"worker":"w","fingerprint":"f","bogus":1}`},
	{"missing worker", "lease", `{"fingerprint":"f"}`},
	{"oversized body", "heartbeat", `{"worker":"` + strings.Repeat("x", 8<<10) + `"}`},
	{"oversized after one value", "heartbeat", `{"worker":"w"}` + strings.Repeat(" ", 8<<10)},
	{"two values", "lease", `{"worker":"w","fingerprint":"f"} {}`},
	{"unknown failed field", "complete",
		`{"worker":"w","fingerprint":"f","lease":1,"failed":[{"experiment":"e","system":"s","point":0,"rep":0}]}`},
	{"empty experiment key", "complete",
		`{"worker":"w","fingerprint":"f","lease":1,"records":[{"key":{"experiment":"","system":"s","point":0,"rep":0},"out":{}}]}`},
	{"absurd rep", "complete",
		`{"worker":"w","fingerprint":"f","lease":1,"records":[{"key":{"experiment":"e","system":"s","point":0,"rep":9999999},"out":{}}]}`},
}

// TestCoordinatorRequestValidation: the bad requests are refused with 400
// and never reach campaign state.
func TestCoordinatorRequestValidation(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	mux := http.NewServeMux()
	c.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	post := func(verb, body string) int {
		resp, err := http.Post(srv.URL+"/api/campaigns/test-campaign/"+verb,
			"application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", verb, err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	for _, tc := range badRequests {
		if status := post(tc.verb, tc.body); status != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, status)
		}
	}

	// Sanity: a well-formed lease request on the idle coordinator still
	// gets through validation, and is held for leaseHold before its 204:
	// nothing was queued meanwhile.
	start := time.Now()
	if status := post("lease", `{"worker":"w","fingerprint":"`+c.Fingerprint+`"}`); status != http.StatusNoContent {
		t.Fatalf("valid lease request: HTTP %d, want 204", status)
	}
	if d := time.Since(start); d < leaseHold {
		t.Fatalf("idle lease request answered after %v, before the %v hold ran out", d, leaseHold)
	}
}

// documented are the statuses the package doc lists for each route.
var documented = map[string][]int{
	"lease": {http.StatusOK, http.StatusNoContent, http.StatusBadRequest, http.StatusForbidden,
		http.StatusNotFound, http.StatusConflict, http.StatusGone, http.StatusInternalServerError},
	"complete": {http.StatusNoContent, http.StatusBadRequest, http.StatusNotFound,
		http.StatusConflict, http.StatusInternalServerError},
	"heartbeat": {http.StatusNoContent, http.StatusBadRequest, http.StatusNotFound},
}

// FuzzDispatchRequests posts each input body to the lease, heartbeat and
// complete routes of a coordinator with an active engine call, and the
// complete twice, as a replayed completion. The campaign is finished, so
// a lease request is answered at once and no input sits in the hold. No
// input may panic; every status must be one the package doc lists; a body
// over its route's cap gets 400; and a completion answered 204 finalizes
// exactly its successful records' keys of the active engine call, each
// once over both posts.
func FuzzDispatchRequests(f *testing.F) {
	cells, ids := testCells(2)
	key := core.KeyOf("exp", cells[0], ids[0])
	for _, tc := range badRequests {
		f.Add([]byte(tc.body))
	}
	valid, err := json.Marshal(completeRequest{Worker: "w", Fingerprint: "fp-test", Lease: 1,
		Records: []Record{{Key: key, Out: core.CellOutcome{OK: true, Attempts: 1}}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"worker":"w","fingerprint":"fp-test"}`))
	f.Add([]byte(`{"worker":"w"}`))
	caps := map[string]int{"lease": maxSmallBody, "heartbeat": maxSmallBody, "complete": maxCompleteBody}

	f.Fuzz(func(t *testing.T, body []byte) {
		c := newTestCoordinator(t, &fakeClock{})
		c.Journal = &memJournal{}
		col := newCollector()
		ctx, cancel := context.WithCancel(context.Background())
		c.mu.Lock()
		queued := c.changed
		c.mu.Unlock()
		errs := make(chan []error, 1)
		go func() { errs <- c.ExecuteCells(ctx, "exp", cells, ids, col.done) }()
		defer func() {
			cancel()
			<-errs
		}()
		<-queued
		c.Finish()
		mux := newMux(c)

		post := func(verb string) int {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
				"/api/campaigns/test-campaign/"+verb, bytes.NewReader(body)))
			status := rec.Code
			if !slices.Contains(documented[verb], status) {
				t.Fatalf("%s: HTTP %d is not a documented status", verb, status)
			}
			if len(body) > caps[verb] && status != http.StatusBadRequest {
				t.Fatalf("%s: %d-byte body over the %d-byte cap got HTTP %d, want 400", verb, len(body), caps[verb], status)
			}
			return status
		}
		if status := post("lease"); status == http.StatusOK || status == http.StatusNoContent {
			t.Fatalf("lease on a finished campaign: HTTP %d", status)
		}
		post("heartbeat")

		want := map[int]bool{}
		for round := 0; round < 2; round++ {
			if post("complete") != http.StatusNoContent {
				continue
			}
			var req completeRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				t.Fatalf("complete answered 204 to a body that does not decode: %v", err)
			}
			for _, r := range req.Records {
				for i := range cells {
					if r.Out.OK && r.Key == core.KeyOf("exp", cells[i], ids[i]) {
						want[i] = true
					}
				}
			}
		}
		col.mu.Lock()
		defer col.mu.Unlock()
		for i, n := range col.counts {
			if n != 1 || !want[i] {
				t.Fatalf("cell %d finalized %d times; the body's successful records of the engine call: %v", i, n, want)
			}
		}
		if len(col.counts) != len(want) {
			t.Fatalf("finalized cells %v, want %v", col.counts, want)
		}
	})
}

// TestCompleteRequiresFingerprint: /complete writes campaign results, so
// a completion that omits the fingerprint is refused with 409 like a
// mismatch, and nothing of it is finalized or journaled.
func TestCompleteRequiresFingerprint(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	j := &memJournal{}
	c.Journal = j
	srv := httptest.NewServer(newMux(c))
	defer srv.Close()
	cells, ids := testCells(1)
	col := newCollector()
	wait := execute(t, c, cells, ids, col)

	key := core.KeyOf("exp", cells[0], ids[0])
	body, err := json.Marshal(map[string]any{
		"worker": "w1",
		"records": []Record{{Key: key, Out: core.CellOutcome{
			Stats: capture.Stats{Generated: 200}, OK: true, Attempts: 1,
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/api/campaigns/test-campaign/complete",
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("completion without fingerprint: HTTP %d, want 409", resp.StatusCode)
	}
	col.mu.Lock()
	finalized := len(col.counts)
	col.mu.Unlock()
	if st := c.Stats(); finalized != 0 || st.Completed != 0 || j.count() != 0 {
		t.Fatalf("refused completion left %d finalized cells, stats %+v, %d journal records",
			finalized, st, j.count())
	}

	// The cell is still owed: a proper lease and completion finish it.
	l := mustLease(t, c, "w1")
	if l == nil || len(l.Keys) != 1 || l.Keys[0] != key {
		t.Fatalf("lease after the refusal = %+v, want the cell", l)
	}
	completeAll(t, c, "w1", l)
	wait()
	if col.counts[0] != 1 {
		t.Fatalf("cell finalized %d times, want 1", col.counts[0])
	}
}

// TestValidKeyShapes pins the key validator's accept/reject line.
func TestValidKeyShapes(t *testing.T) {
	good := core.CellKey{Experiment: "fig6.2", System: "swan", Point: 3, Rep: 1}
	if msg := validKey(good); msg != "" {
		t.Fatalf("valid key rejected: %s", msg)
	}
	bad := []core.CellKey{
		{Experiment: "", System: "s"},
		{Experiment: strings.Repeat("e", 129), System: "s"},
		{Experiment: "e", System: ""},
		{Experiment: "e", System: strings.Repeat("s", 129)},
		{Experiment: "e", System: "s", Rep: -1},
		{Experiment: "e", System: "s", Rep: 1<<20 + 1},
	}
	for i, k := range bad {
		if validKey(k) == "" {
			t.Errorf("bad key %d accepted: %+v", i, k)
		}
	}
}
