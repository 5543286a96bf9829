// Tests for the resilient-transport layer: the worker's one retry rule,
// the default client timeout, the protocol's timing relations, and the
// coordinator's request validation.
package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/netchaos"
)

// newTestWorker builds a worker with the state Run would set up, so that
// tests can use post and call directly.
func newTestWorker(url string) *Worker {
	w := &Worker{ID: "w", BaseURL: url}
	campaign := "c"
	w.campaign.Store(&campaign)
	w.heard()
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
// the client timeout cuts the exchange off; a held lease request is
// answered well before the call's deadline; and a worker retrying at
// pollInterval sends a netchaos partition epoch's worth of requests well
// within straggler, the silence that ends it.
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
	if epoch := time.Duration(netchaos.DefaultPlan(0).EpochLen) * pollInterval; epoch > straggler/4 {
		t.Errorf("a partition epoch lasts %v of retries, more than a quarter of straggler %v", epoch, straggler)
	}
}

// TestPostRetrySurvivesTransientFailures: a call that hits transient
// 5xx responses is sent again until the coordinator recovers, and returns
// the answer without surfacing the intermediate failures.
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
	status, err := w.call(context.Background(), "lease", heartbeatRequest{Worker: "w"}, &out)
	if err != nil || status != http.StatusOK {
		t.Fatalf("call = %d, %v after recovery", status, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 failures + success)", got)
	}
	if out.Campaign != "c" {
		t.Fatalf("decoded %+v", out)
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
	{"malformed held", "lease", `{"worker":"w","fingerprint":"f","held":[-1]}`},
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
// complete twice, as a replayed completion. Another worker holds a lease
// and cells stay leasable, so a lease request is answered at once and no
// input sits in the hold. No input may panic; every status must be one
// the package doc lists; a body over its route's cap gets 400; a lease
// request never ends a lease of another worker; and a completion answered
// 204 finalizes exactly its successful records' keys of the active engine
// call, each once over both posts.
func FuzzDispatchRequests(f *testing.F) {
	const other = "other"
	cells, ids := testCells(maxLease + 2)
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
	// Held lists: the other worker's own lease (valid), unknown ids,
	// another worker's lease, a non-numeric entry, and one over the cap.
	f.Add([]byte(`{"worker":"other","fingerprint":"fp-test","held":[1]}`))
	f.Add([]byte(`{"worker":"other","fingerprint":"fp-test"}`))
	f.Add([]byte(`{"worker":"w","fingerprint":"fp-test","held":[7,99]}`))
	f.Add([]byte(`{"worker":"w","fingerprint":"fp-test","held":[1]}`))
	f.Add([]byte(`{"worker":"w","fingerprint":"fp-test","held":["1"]}`))
	f.Add([]byte(`{"worker":"w","fingerprint":"fp-test","held":[1` + strings.Repeat(",1", maxSmallBody) + `]}`))
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
		theirs, err := c.Lease(other, c.Fingerprint)
		if err != nil || theirs == nil {
			t.Fatalf("Lease(%s) = %+v, %v", other, theirs, err)
		}
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
		if status := post("lease"); status == http.StatusNoContent {
			t.Fatal("lease request answered 204 while cells were leasable")
		}
		c.mu.Lock()
		_, live := c.leases[theirs.ID]
		c.mu.Unlock()
		if !live {
			var req leaseRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if dec.Decode(&req) != nil || req.Worker != other {
				t.Fatalf("a lease request that is not %s's ended its lease %d", other, theirs.ID)
			}
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
