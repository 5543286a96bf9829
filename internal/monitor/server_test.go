package monitor

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/experiments"
)

// newTestService wires hub + registry + HTTP server for a test.
func newTestService(t *testing.T) (*Hub, *Registry, *httptest.Server) {
	t.Helper()
	h := NewHub()
	reg := NewRegistry()
	reg.Attach(h)
	srv := httptest.NewServer(NewServer(h, reg).Handler())
	t.Cleanup(srv.Close)
	return h, reg, srv
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// publishCampaign pushes a small synthetic campaign through the bus.
func publishCampaign(h *Hub, id string, cells int) {
	h.Observe(core.Event{Kind: core.EventCampaignStart, Campaign: id, Detail: "fp-test"})
	h.Observe(core.Event{Kind: core.EventExperimentStart, Experiment: "fig6.2-smp"})
	for i := 0; i < cells; i++ {
		st := capture.Stats{Generated: 100, AppCaptured: []uint64{90}}
		st.Ledger.RecordN(capture.CauseNICRing, 10, 6400, 0)
		h.Observe(core.Event{Kind: core.EventCell, Experiment: "fig6.2-smp",
			System: "swan", Point: uint64(i), X: float64(50 * (i + 1)),
			Stats: &st})
	}
	h.Observe(core.Event{Kind: core.EventExperimentFinish, Experiment: "fig6.2-smp"})
	h.Observe(core.Event{Kind: core.EventCampaignFinish, Campaign: id})
}

func TestHealthz(t *testing.T) {
	_, _, srv := newTestService(t)
	code, body := getBody(t, srv.URL+"/healthz")
	if code != 200 || body != "ok\n" {
		t.Fatalf("healthz = %d %q", code, body)
	}
}

func TestCampaignsAndCells(t *testing.T) {
	h, _, srv := newTestService(t)
	publishCampaign(h, "camp1", 7)

	code, body := getBody(t, srv.URL+"/api/campaigns")
	if code != 200 {
		t.Fatalf("campaigns = %d", code)
	}
	var infos []CampaignInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != "camp1" || infos[0].Fingerprint != "fp-test" ||
		!infos[0].Finished || infos[0].Cells != 7 {
		t.Fatalf("campaigns = %+v", infos)
	}
	if len(infos[0].Experiments) != 1 || infos[0].Experiments[0] != "fig6.2-smp" {
		t.Fatalf("experiments = %v", infos[0].Experiments)
	}

	// Paged cells.
	code, body = getBody(t, srv.URL+"/api/campaigns/camp1/cells?offset=5&limit=10")
	if code != 200 {
		t.Fatalf("cells = %d", code)
	}
	var page cellsResponse
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 7 || page.Offset != 5 || len(page.Cells) != 2 {
		t.Fatalf("page = total %d offset %d len %d", page.Total, page.Offset, len(page.Cells))
	}
	v := page.Cells[0]
	if v.System != "swan" || v.RatePct != 90 || v.Dropped != 10 {
		t.Fatalf("cell = %+v", v)
	}
	// The ledger renders causes by name (deterministic order).
	if !strings.Contains(body, `"nic-ring"`) {
		t.Fatalf("cell drops missing nic-ring cause:\n%s", body)
	}

	if code, _ := getBody(t, srv.URL+"/api/campaigns/nope/cells"); code != 404 {
		t.Fatalf("unknown campaign = %d, want 404", code)
	}
}

func TestMetrics(t *testing.T) {
	h, _, srv := newTestService(t)
	publishCampaign(h, "camp1", 3)
	// Injected chaos faults surface as a labeled counter.
	h.Observe(core.Event{Kind: core.EventChaos, Fault: "net-reset"})
	h.Observe(core.Event{Kind: core.EventChaos, Fault: "net-reset"})
	h.Observe(core.Event{Kind: core.EventChaos, Fault: "fs-write"})
	// A stalled subscriber accumulates drops that /metrics must expose.
	stalled := h.Subscribe("stalled", 2)
	defer h.Unsubscribe(stalled)
	for i := 0; i < 10; i++ {
		h.Observe(core.Event{Kind: core.EventRetry, Rep: i})
	}

	code, body := getBody(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"repro_cells_completed_total 3",
		"repro_cells_retried_total 10",
		`repro_drop_packets_total{cause="nic-ring"} 30`,
		`repro_drop_packets_total{cause="bpf-buffer"} 0`,
		`repro_bus_events_dropped_total{subscriber="stalled"} 8`,
		`repro_chaos_injected_total{fault="fs-write"} 1`,
		`repro_chaos_injected_total{fault="net-reset"} 2`,
		"repro_bus_subscribers 1",
		"repro_goroutines",
		"repro_heap_alloc_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	kind string
	data wireEvent
}

// readSSE parses count events from an SSE stream.
func readSSE(t *testing.T, r io.Reader, count int) []sseEvent {
	t.Helper()
	sc := bufio.NewScanner(r)
	var out []sseEvent
	var cur sseEvent
	for len(out) < count && sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
			out = append(out, cur)
			cur = sseEvent{}
		}
	}
	if len(out) < count {
		t.Fatalf("SSE stream ended after %d events, want %d (err=%v)", len(out), count, sc.Err())
	}
	return out
}

// TestStreamLiveReplayThenFollow: an SSE client connecting mid-campaign
// replays history and follows live, seeing every event exactly once in
// seq order.
func TestStreamLiveReplayThenFollow(t *testing.T) {
	h, _, srv := newTestService(t)
	h.Observe(core.Event{Kind: core.EventCampaignStart, Campaign: "camp1", Detail: "fp"})
	for i := 0; i < 5; i++ {
		h.Observe(core.Event{Kind: core.EventCell, System: "swan", Rep: i})
	}

	resp, err := http.Get(srv.URL + "/api/campaigns/camp1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}

	// Replayed history: campaign-start + 5 cells.
	evs := readSSE(t, resp.Body, 6)

	// Publish more while the client is connected.
	go func() {
		for i := 5; i < 10; i++ {
			h.Observe(core.Event{Kind: core.EventCell, System: "swan", Rep: i})
		}
		h.Observe(core.Event{Kind: core.EventCampaignFinish, Campaign: "camp1"})
	}()
	evs = append(evs, readSSE(t, resp.Body, 6)...)

	if evs[0].kind != "campaign-start" || evs[0].data.Detail != "fp" {
		t.Fatalf("first event = %+v", evs[0])
	}
	if last := evs[len(evs)-1]; last.kind != "campaign-finish" {
		t.Fatalf("last event = %+v", last)
	}
	var lastSeq uint64
	rep := 0
	for _, ev := range evs {
		if ev.data.Seq <= lastSeq {
			t.Fatalf("seq not strictly increasing at %+v (prev %d): duplicate or reorder", ev, lastSeq)
		}
		lastSeq = ev.data.Seq
		if ev.kind == "cell" {
			if ev.data.Rep != rep {
				t.Fatalf("cell rep = %d, want %d (exactly-once violated)", ev.data.Rep, rep)
			}
			rep++
		}
	}
	if rep != 10 {
		t.Fatalf("saw %d cells, want 10", rep)
	}
}

// TestStreamJournalBacked: a campaign known only as a journal directory
// is streamed by tailing its WAL — replay what is durable, then follow
// the writer.
func TestStreamJournalBacked(t *testing.T) {
	_, reg, srv := newTestService(t)
	dir := t.TempDir()
	o := experiments.Options{Packets: 1000, Reps: 1, Seed: 1}
	camp, err := experiments.CreateCampaign(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer camp.Close()
	rec := func(i int) {
		st := capture.Stats{Generated: 50, AppCaptured: []uint64{50}}
		if err := camp.Record(core.CellKey{Experiment: "fig6.2-smp", Point: uint64(i), System: "swan"},
			core.CellOutcome{Stats: st, OK: true, Attempts: 1}); err != nil {
			t.Error(err)
		}
	}
	rec(0)
	rec(1)
	reg.AddJournalDir("mcamp", dir)

	resp, err := http.Get(srv.URL + "/api/campaigns/mcamp/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	evs := readSSE(t, resp.Body, 3) // header + 2 durable cells
	if evs[0].kind != "campaign-start" || evs[0].data.Detail == "" {
		t.Fatalf("first journal event = %+v", evs[0])
	}
	if evs[1].kind != "cell" || evs[1].data.System != "swan" || evs[1].data.RatePct != 100 {
		t.Fatalf("replayed cell = %+v", evs[1])
	}

	// Append while the stream is live: the tail is followed.
	rec(2)
	more := readSSE(t, resp.Body, 1)
	if more[0].kind != "cell" || more[0].data.Point != 2 {
		t.Fatalf("followed cell = %+v", more[0])
	}

	// The same journal also answers the paged cells API.
	code, body := getBody(t, srv.URL+"/api/campaigns/mcamp/cells")
	if code != 200 {
		t.Fatalf("cells = %d", code)
	}
	var page cellsResponse
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 3 {
		t.Fatalf("journal cells total = %d, want 3", page.Total)
	}
	// And the campaign listing discovers it with its fingerprint.
	_, body = getBody(t, srv.URL+"/api/campaigns")
	var infos []CampaignInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != "mcamp" || infos[0].Source != "journal" ||
		infos[0].Fingerprint == "" || infos[0].Cells != 3 {
		t.Fatalf("discovered campaigns = %+v", infos)
	}
}

// TestCellsBadPaging: malformed or negative offset/limit are client
// errors answered with 400 and a JSON error body — not silently
// replaced with defaults.
func TestCellsBadPaging(t *testing.T) {
	h, _, srv := newTestService(t)
	publishCampaign(h, "camp-paging", 3)

	for _, q := range []string{
		"offset=abc", "limit=abc", "offset=-1", "limit=-5", "offset=1.5",
	} {
		code, body := getBody(t, srv.URL+"/api/campaigns/camp-paging/cells?"+q)
		if code != http.StatusBadRequest {
			t.Fatalf("cells?%s = %d, want 400", q, code)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Fatalf("cells?%s body = %q, want a JSON error object", q, body)
		}
	}

	// Well-formed paging still works.
	code, body := getBody(t, srv.URL+"/api/campaigns/camp-paging/cells?offset=1&limit=1")
	if code != 200 {
		t.Fatalf("good paging = %d, want 200", code)
	}
	var page cellsResponse
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 3 || page.Offset != 1 || len(page.Cells) != 1 {
		t.Fatalf("page = total %d offset %d cells %d, want 3/1/1", page.Total, page.Offset, len(page.Cells))
	}

	// limit=0 is an empty page that carries the total, not every cell.
	code, body = getBody(t, srv.URL+"/api/campaigns/camp-paging/cells?limit=0")
	page = cellsResponse{}
	if err := json.Unmarshal([]byte(body), &page); code != 200 || err != nil {
		t.Fatalf("limit=0 = %d, %v", code, err)
	}
	if page.Total != 3 || len(page.Cells) != 0 {
		t.Fatalf("limit=0 page = total %d cells %d, want 3/0", page.Total, len(page.Cells))
	}
}

// FuzzMonitorRequests sends GET /api/campaigns/{id}/cells?{query} with a
// fuzzed id (path-escaped) and raw query to a server holding one campaign
// of MaxCellPage+1 cells. No input may panic; every status is 200, 400
// or 404; and a 200 page holds at most MaxCellPage cells, at an offset
// no greater than the total.
func FuzzMonitorRequests(f *testing.F) {
	h := NewHub()
	reg := NewRegistry()
	reg.Attach(h)
	publishCampaign(h, "big", MaxCellPage+1)
	handler := NewServer(h, reg).Handler()
	for _, seed := range [][2]string{
		{"big", ""}, {"big", "limit=0"}, {"big", "limit=5001"}, {"big", "offset=5001&limit=1"},
		{"big", "offset=9999999999999999999999"}, {"big", "limit=-1"}, {"big", "offset=%zz"},
		{"big", "limit=1&limit=2"}, {"nope", ""}, {"b/ig", ""}, {"..", ""}, {"", ""},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, id, query string) {
		if id == "" || id == "." || id == ".." {
			return // no path segment: the mux redirects to the clean path before routing
		}
		req := httptest.NewRequest(http.MethodGet, "/api/campaigns/"+url.PathEscape(id)+"/cells", nil)
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusNotFound:
			return
		case http.StatusOK:
		default:
			t.Fatalf("id %q query %q: HTTP %d", id, query, rec.Code)
		}
		var page cellsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatalf("id %q query %q: undecodable page: %v", id, query, err)
		}
		if len(page.Cells) > MaxCellPage || page.Offset > page.Total {
			t.Fatalf("id %q query %q: %d cells at offset %d of %d", id, query, len(page.Cells), page.Offset, page.Total)
		}
	})
}

// TestWorkerAttributionMetrics: cells carrying a dispatch worker label
// surface per-worker progress counters, and lease-lifecycle events feed
// the lease counters.
func TestWorkerAttributionMetrics(t *testing.T) {
	h, reg, srv := newTestService(t)
	h.Observe(core.Event{Kind: core.EventCampaignStart, Campaign: "dist", Detail: "fp"})
	h.Observe(core.Event{Kind: core.EventLease, Worker: "w1", Detail: "lease 1: 2 cells"})
	for i := 0; i < 2; i++ {
		h.Observe(core.Event{Kind: core.EventCell, Experiment: "fig6.2-smp",
			System: "swan", Point: uint64(i), Worker: "w1",
			Stats: &capture.Stats{Generated: 10, AppCaptured: []uint64{10}}})
	}
	h.Observe(core.Event{Kind: core.EventLeaseExpired, Worker: "w2"})
	h.Observe(core.Event{Kind: core.EventLease, Worker: "w2"})
	h.Observe(core.Event{Kind: core.EventCell, Experiment: "fig6.2-smp",
		System: "swan", Point: 5, Worker: "w2",
		Stats: &capture.Stats{Generated: 10, AppCaptured: []uint64{10}}})

	c := reg.Counters()
	if c.Leases != 2 || c.LeasesExpired != 1 {
		t.Fatalf("lease counters = %d granted / %d expired, want 2/1", c.Leases, c.LeasesExpired)
	}
	wc := reg.WorkerCells()
	if wc["w1"] != 2 || wc["w2"] != 1 {
		t.Fatalf("worker cells = %v, want w1:2 w2:1", wc)
	}

	code, body := getBody(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"repro_leases_granted_total 2",
		"repro_leases_expired_total 1",
		`repro_worker_cells_completed_total{worker="w1"} 2`,
		`repro_worker_cells_completed_total{worker="w2"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestStreamClientResetReleasesSubscriber: an SSE client that vanishes
// mid-event — connection reset, no clean EOF — must not leak its hub
// subscription (which would grow the ring forever) or its handler
// goroutine.
func TestStreamClientResetReleasesSubscriber(t *testing.T) {
	h, _, srv := newTestService(t)
	h.Observe(core.Event{Kind: core.EventCampaignStart, Campaign: "camp1", Detail: "fp"})
	for i := 0; i < 3; i++ {
		h.Observe(core.Event{Kind: core.EventCell, System: "swan", Rep: i})
	}
	baseline := h.Subscribers()

	before := runtime.NumGoroutine()
	const clients = 5
	for c := 0; c < clients; c++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/api/campaigns/camp1/stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		// Read partway into the replay, then kill the connection without
		// reading the rest — the handler is mid-stream.
		buf := make([]byte, 64)
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			t.Fatalf("client %d: stream never started: %v", c, err)
		}
		cancel()
		resp.Body.Close()
	}

	// The handlers notice the disconnect (context cancellation) and
	// unsubscribe; no events need to flow for that to happen.
	deadline := time.Now().Add(5 * time.Second)
	for h.Subscribers() != baseline {
		if time.Now().After(deadline) {
			t.Fatalf("subscribers = %d after %d client resets, want %d",
				h.Subscribers(), clients, baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Publishing still works and reaches nobody stale.
	h.Observe(core.Event{Kind: core.EventCell, System: "swan", Rep: 99})
	for d, n := range h.Drops() {
		if strings.HasPrefix(d, "sse:") && n > 0 {
			// Drops on a dead subscriber would mean it is still registered.
			t.Fatalf("dead SSE subscriber %q still accumulating drops (%d)", d, n)
		}
	}

	// Handler goroutines wind down too (allow scheduler slack).
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, baseline %d: SSE handlers leaked", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
