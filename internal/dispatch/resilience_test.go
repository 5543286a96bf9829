// Tests for the resilient-transport layer: the circuit breaker, the
// worker's bounded in-place retries, the default client timeout, and
// the coordinator's request validation.
package dispatch

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mix"
)

// TestBreakerLifecycle walks the breaker through its full state machine
// on an injected clock: closed → open at the threshold → fail-fast
// during cooldown → half-open single probe → closed on probe success,
// and re-open on probe failure.
func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, time.Second)
	b.now = func() time.Time { return now }

	// Below the threshold the breaker stays closed.
	b.Failure()
	b.Failure()
	if !b.Allow() || b.State() != "closed" {
		t.Fatalf("breaker opened below threshold: %s", b.State())
	}
	// A success resets the failure run.
	b.Success()
	b.Failure()
	b.Failure()
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
	now = now.Add(time.Second + time.Millisecond)
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
	now = now.Add(time.Second + time.Millisecond)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Success()
	if b.State() != "closed" || !b.Allow() {
		t.Fatalf("successful probe left breaker %s", b.State())
	}
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

	w := &Worker{ID: "w", BaseURL: srv.URL, Backoff: time.Millisecond, campaign: "c"}
	w.jitter = mix.String(w.ID) | 1
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
// exhausts the bounded budget — 1 initial + Retries attempts — and the
// final error surfaces.
func TestPostRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	w := &Worker{ID: "w", BaseURL: srv.URL, Backoff: time.Millisecond, Retries: 2, campaign: "c"}
	w.jitter = mix.String(w.ID) | 1
	status, err := w.postRetry(context.Background(), "lease", heartbeatRequest{Worker: "w"}, nil)
	if err == nil {
		t.Fatalf("postRetry succeeded against a dead coordinator (status %d)", status)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (1 + 2 retries)", got)
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

	w := &Worker{
		ID: "w", BaseURL: srv.URL, Retries: -1, campaign: "c",
		Breaker: NewBreaker(2, time.Hour),
	}
	w.jitter = mix.String(w.ID) | 1
	ctx := context.Background()
	for i := 0; i < 2; i++ {
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
		w := &Worker{ID: id, Backoff: 100 * time.Millisecond}
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
		base := 100 * time.Millisecond << uint(attempt-1)
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

// TestCoordinatorRequestValidation: garbage requests — malformed JSON,
// unknown fields, oversized bodies, out-of-range lease caps, corrupt
// cell keys — are refused with 400 and never reach campaign state.
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

	cases := []struct {
		name, verb, body string
	}{
		{"malformed json", "lease", `{"worker": `},
		{"unknown field", "lease", `{"worker":"w","fingerprint":"f","bogus":1}`},
		{"missing worker", "lease", `{"fingerprint":"f"}`},
		{"negative max", "lease", `{"worker":"w","fingerprint":"f","max":-1}`},
		{"huge max", "lease", `{"worker":"w","fingerprint":"f","max":70000}`},
		{"oversized body", "heartbeat", `{"worker":"` + strings.Repeat("x", 8<<10) + `"}`},
		{"empty experiment key", "complete",
			`{"worker":"w","fingerprint":"f","lease":1,"failed":[{"experiment":"","system":"s","point":0,"rep":0}]}`},
		{"absurd rep", "complete",
			`{"worker":"w","fingerprint":"f","lease":1,"records":[{"key":{"experiment":"e","system":"s","point":0,"rep":9999999},"out":{}}]}`},
	}
	for _, tc := range cases {
		if status := post(tc.verb, tc.body); status != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, status)
		}
	}

	// Sanity: a well-formed lease request on the idle coordinator still
	// gets through validation (204: nothing queued yet).
	if status := post("lease", `{"worker":"w","fingerprint":"`+c.Fingerprint+`"}`); status != http.StatusNoContent {
		t.Fatalf("valid lease request: HTTP %d, want 204", status)
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
