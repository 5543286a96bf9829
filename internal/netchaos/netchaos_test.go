package netchaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"
)

// chaosPlan is a hot mix for tests: every class likely enough that a
// few hundred requests exercise all of them, with delays short enough
// to keep the test fast.
func chaosPlan(seed uint64) *Plan {
	p := DefaultPlan(seed)
	p.LatencyMax = time.Millisecond
	p.SlowBodyDelay = 100 * time.Microsecond
	return p
}

// runSchedule drives n requests through a fresh transport against a
// trivial backend and returns the injected fault classes in order,
// keyed by request number.
func runSchedule(t *testing.T, seed uint64, peer string, n int) []string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"ok":true,"payload":"0123456789abcdef0123456789abcdef"}`)
	}))
	defer srv.Close()
	var faults []string
	tr := &Transport{Plan: chaosPlan(seed), Peer: peer}
	tr.OnFault = func(c Class, detail string) {
		faults = append(faults, fmt.Sprintf("%d:%s", tr.n.Load(), c))
	}
	client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	for i := 0; i < n; i++ {
		resp, err := client.Get(srv.URL)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return faults
}

// TestTransportDeterministic: one seed and peer → one fault schedule,
// exactly reproducible; a different peer reshuffles it.
func TestTransportDeterministic(t *testing.T) {
	a := runSchedule(t, 7, "w1", 300)
	b := runSchedule(t, 7, "w1", 300)
	c := runSchedule(t, 7, "w2", 300)
	if len(a) == 0 {
		t.Fatal("300 requests injected nothing — the plan is inert")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed+peer, different fault counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed+peer diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different peers drew identical fault schedules")
		}
	}
}

// TestTransportFaultShapes: over a long request stream the transport
// produces each failure shape — typed transport errors for drops and
// partitions, reset/truncated/malformed bodies for response corruption —
// and every injected error satisfies IsInjected.
func TestTransportFaultShapes(t *testing.T) {
	const body = `{"ok":true,"n":12345,"pad":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, body)
	}))
	defer srv.Close()

	tr := &Transport{Plan: chaosPlan(3), Peer: "shapes"}
	classes := map[Class]int{}
	tr.OnFault = func(c Class, detail string) { classes[c]++ }
	client := &http.Client{Transport: tr, Timeout: 5 * time.Second}

	var transportErrs, bodyErrs, corrupt int
	for i := 0; i < 600; i++ {
		resp, err := client.Get(srv.URL)
		if err != nil {
			if !errors.Is(err, syscall.ECONNRESET) && !errors.Is(err, syscall.ECONNREFUSED) &&
				!errors.Is(err, syscall.ENETUNREACH) {
				t.Fatalf("request %d: non-injected-shaped error %v", i, err)
			}
			transportErrs++
			continue
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			bodyErrs++
			continue
		}
		var v struct {
			OK bool `json:"ok"`
			N  int  `json:"n"`
		}
		if err := json.Unmarshal(data, &v); err != nil || !v.OK || v.N != 12345 {
			corrupt++
		}
	}
	for _, want := range []Class{Latency, DropRequest, DropResponse, Reset, SlowBody, TruncateBody, MalformedBody, Partition} {
		if classes[want] == 0 {
			t.Errorf("class %s never injected in 600 requests (got %v)", want, classes)
		}
	}
	if transportErrs == 0 || bodyErrs == 0 || corrupt == 0 {
		t.Fatalf("missing failure shape: transportErrs=%d bodyErrs=%d corrupt=%d",
			transportErrs, bodyErrs, corrupt)
	}
}

// TestPartitionEpochs: partitions arrive as multi-request outage windows
// (every request of a drawn epoch fails), not independent blips.
func TestPartitionEpochs(t *testing.T) {
	p := &Plan{Seed: 11, PPartition: 0.3, EpochLen: 8}
	tr := &Transport{Plan: p, Peer: "epoch"}
	// No server needed: a partitioned request fails before dialing.
	req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, "http://127.0.0.1:1/x", nil)
	// The epoch of request n (1-based) is n/EpochLen: within one epoch
	// the partition verdict is constant.
	byEpoch := map[uint64][]bool{}
	for i := 0; i < 96; i++ {
		_, err := tr.RoundTrip(req.Clone(context.Background()))
		epoch := uint64(i+1) / 8
		byEpoch[epoch] = append(byEpoch[epoch], errors.Is(err, ErrInjectedPartition))
	}
	var saw bool
	for epoch, verdicts := range byEpoch {
		saw = saw || verdicts[0]
		for _, v := range verdicts[1:] {
			if v != verdicts[0] {
				t.Fatalf("epoch %d not constant: %v", epoch, verdicts)
			}
		}
	}
	if !saw {
		t.Fatal("no partitioned epoch in 12 epochs at p=0.3")
	}
}

// TestListenerResets: a seeded listener resets a fraction of inbound
// connections; unaffected ones work, and the server never sees the
// reset ones.
func TestListenerResets(t *testing.T) {
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	ln := &Listener{Listener: srv.Listener, Plan: &Plan{Seed: 5, PAcceptReset: 0.3}}
	srv.Listener = ln
	srv.Start()
	defer srv.Close()

	// Fresh connection per request, so every request is one accept draw.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	var okN, failN int
	for i := 0; i < 60; i++ {
		resp, err := client.Get(srv.URL)
		if err != nil {
			failN++
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(data) == "ok" {
			okN++
		}
	}
	if okN == 0 || failN == 0 {
		t.Fatalf("want a mix of served and reset connections, got ok=%d fail=%d", okN, failN)
	}
	if ln.Injected() == 0 {
		t.Fatal("listener reports no injected resets")
	}
}

// TestIsInjected separates the harness's typed errors from real ones.
func TestIsInjected(t *testing.T) {
	for _, err := range []error{ErrInjectedPartition, ErrInjectedDrop, ErrInjectedLost, ErrInjectedReset} {
		if !IsInjected(fmt.Errorf("wrap: %w", err)) {
			t.Errorf("IsInjected(%v) = false", err)
		}
	}
	if IsInjected(io.EOF) || IsInjected(nil) {
		t.Error("IsInjected misclassifies real errors")
	}
}

// TestSlowBodyHonoursDeadline: a slow body read under a request deadline
// ends with the deadline's error at about the deadline, as a socket read
// under a deadline does, instead of trickling on past it.
func TestSlowBodyHonoursDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte("x"), 100))
	}))
	defer srv.Close()
	const delay, deadline = 35 * time.Millisecond, 500 * time.Millisecond
	tr := &Transport{Plan: &Plan{Seed: 1, PSlowBody: 1, SlowBodyDelay: delay}}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("read %d of 100 bytes in %v with error %v; want the deadline's error", len(data), took, err)
	}
	if took > deadline+4*delay {
		t.Fatalf("slow body ended %v after the request, past its %v deadline", took, deadline)
	}
}
