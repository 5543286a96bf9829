// Package netchaos injects seeded, deterministic network faults into
// the coordinator↔worker dispatch protocol: the infrastructure
// counterpart of the simulation fault model (internal/faults), built on
// the same splitmix64 draw discipline. A chaos run answers the question
// the thesis asks of capture stacks — how does the system behave under
// stress — for the distributed layer itself: leases must survive
// partitions, completions must survive response loss (idempotent
// replay), and the merged campaign output must stay byte-identical to
// an undistributed run no matter which messages the network mangles.
//
// Two injection points:
//
//   - Transport is a fault-injecting http.RoundTripper wrapped around a
//     worker's client: per request it may add latency, drop the request
//     before it is sent, deliver the request but lose the response (the
//     duplicate-inducing fault: the worker retries a call the
//     coordinator already served), reset the connection mid-body, slow
//     the body to a trickle (a slow-loris server, defeated by the
//     client's timeout), truncate the body, or corrupt the JSON.
//     Partitions are epochs of consecutive requests that all fail fast,
//     so a worker sees a real outage window, not independent blips.
//   - Listener wraps the coordinator's accept loop: a seeded fraction of
//     inbound connections are reset at accept, which every client —
//     workers and monitoring consumers alike — must tolerate.
//
// Every draw is a pure function of (seed, peer, per-class counter):
// the same seed replays the same fault schedule.
package netchaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/mix"
)

// Class identifies one injectable network fault.
type Class int

const (
	// Latency: the request is delayed before dispatch.
	Latency Class = iota
	// Partition: the request falls inside a partition epoch and fails
	// fast without touching the network.
	Partition
	// DropRequest: the request is never sent; the caller sees a
	// connection error.
	DropRequest
	// DropResponse: the request is delivered and served, but the
	// response is lost — the fault that forces idempotency-safe replay.
	DropResponse
	// Reset: the connection is reset mid-response-body.
	Reset
	// SlowBody: the response body arrives at a trickle (slow-loris); a
	// client without timeouts hangs forever.
	SlowBody
	// TruncateBody: the response body is cut short.
	TruncateBody
	// MalformedBody: response bytes are corrupted in flight.
	MalformedBody
	// AcceptReset: an inbound connection is reset at accept
	// (Listener-side).
	AcceptReset

	NumClasses
)

// String returns the short fault label used in events and metrics.
func (c Class) String() string {
	switch c {
	case Latency:
		return "latency"
	case Partition:
		return "partition"
	case DropRequest:
		return "drop-request"
	case DropResponse:
		return "drop-response"
	case Reset:
		return "reset"
	case SlowBody:
		return "slow-body"
	case TruncateBody:
		return "truncate-body"
	case MalformedBody:
		return "malformed-body"
	case AcceptReset:
		return "accept-reset"
	default:
		return fmt.Sprintf("netfault(%d)", int(c))
	}
}

// Plan is the seeded fault mix. The zero Plan injects nothing;
// DefaultPlan returns the -netchaos mix. All draws are pure functions of
// (Seed, peer, class, counter), so replays are exact, every fault is
// transient (the retry draws a fresh counter), and a campaign always
// terminates.
type Plan struct {
	Seed uint64

	PLatency      float64
	PDropRequest  float64
	PDropResponse float64
	PReset        float64
	PSlowBody     float64
	PTruncate     float64
	PMalformed    float64
	PAcceptReset  float64

	// PPartition is the chance that a partition epoch (EpochLen
	// consecutive requests of one transport) is an outage window.
	PPartition float64
	EpochLen   int

	// LatencyMax bounds the injected delay; SlowBodyDelay is the
	// per-read trickle pause of a slow-loris body.
	LatencyMax    time.Duration
	SlowBodyDelay time.Duration
}

// DefaultPlan returns the calibrated -netchaos mix: every fault class
// fires many times over a campaign, partitions come in real windows,
// and everything clears fast enough that a worker sending each call
// again until it is answered, plus the coordinator's lease expiry,
// always converges.
func DefaultPlan(seed uint64) *Plan {
	return &Plan{
		Seed:          seed,
		PLatency:      0.10,
		PDropRequest:  0.06,
		PDropResponse: 0.05,
		PReset:        0.04,
		PSlowBody:     0.03,
		PTruncate:     0.04,
		PMalformed:    0.04,
		PAcceptReset:  0.05,
		PPartition:    0.12,
		EpochLen:      24,
		LatencyMax:    80 * time.Millisecond,
		SlowBodyDelay: 35 * time.Millisecond,
	}
}

func (p *Plan) roll(prob float64, peer uint64, c Class, n uint64) bool {
	if p == nil || prob <= 0 {
		return false
	}
	return mix.Unit(mix.Keys(p.Seed, peer, uint64(c)*mix.Golden, n)) < prob
}

// Typed injected errors, so tests and logs can tell chaos from real
// failures. They unwrap to the syscall errno a real network stack would
// surface.
var (
	ErrInjectedPartition = fmt.Errorf("netchaos: partition window: %w", syscall.ENETUNREACH)
	ErrInjectedDrop      = fmt.Errorf("netchaos: request dropped: %w", syscall.ECONNREFUSED)
	ErrInjectedLost      = fmt.Errorf("netchaos: response lost: %w", syscall.ECONNRESET)
	ErrInjectedReset     = fmt.Errorf("netchaos: connection reset: %w", syscall.ECONNRESET)
)

// IsInjected reports whether err originated in this package's fault
// injection (directly or wrapped).
func IsInjected(err error) bool {
	return errors.Is(err, ErrInjectedPartition) || errors.Is(err, ErrInjectedDrop) ||
		errors.Is(err, ErrInjectedLost) || errors.Is(err, ErrInjectedReset)
}

// Transport is the fault-injecting http.RoundTripper. Wrap a worker's
// client with it; the zero value with a nil Plan is a passthrough.
type Transport struct {
	// Plan draws the faults; nil injects nothing.
	Plan *Plan
	// Base performs the real round trips; nil = http.DefaultTransport.
	Base http.RoundTripper
	// Peer salts the draws (conventionally the worker id), so two
	// workers sharing a seed see independent fault schedules.
	Peer string
	// OnFault, when set, observes every injected fault. Must not block.
	OnFault func(c Class, detail string)

	n        atomic.Uint64 // request counter: the draw sequence
	injected atomic.Uint64

	peerOnce sync.Once
	peerHash uint64
}

// Injected reports how many faults this transport has injected.
func (t *Transport) Injected() uint64 { return t.injected.Load() }

func (t *Transport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

func (t *Transport) peer() uint64 {
	t.peerOnce.Do(func() { t.peerHash = mix.String(t.Peer) })
	return t.peerHash
}

func (t *Transport) fault(c Class, detail string) {
	t.injected.Add(1)
	if t.OnFault != nil {
		t.OnFault(c, detail)
	}
}

// closeReq releases a request body we are not going to send — the
// RoundTripper contract even on error paths.
func closeReq(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// RoundTrip performs one request under the fault plan.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := t.Plan
	if p == nil {
		return t.base().RoundTrip(req)
	}
	n := t.n.Add(1)
	peer := t.peer()

	// Partition epochs: EpochLen consecutive requests share one outage
	// draw, so a partition is a window, not a blip.
	if p.EpochLen > 0 && p.roll(p.PPartition, peer, Partition, n/uint64(p.EpochLen)) {
		closeReq(req)
		t.fault(Partition, fmt.Sprintf("%s %s (epoch %d)", req.Method, req.URL.Path, n/uint64(p.EpochLen)))
		return nil, ErrInjectedPartition
	}
	if p.roll(p.PLatency, peer, Latency, n) {
		d := time.Duration(mix.Unit(mix.Keys(p.Seed, peer, uint64(Latency), n, 1)) * float64(p.LatencyMax))
		t.fault(Latency, fmt.Sprintf("%s %s +%s", req.Method, req.URL.Path, d.Round(time.Millisecond)))
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			closeReq(req)
			return nil, req.Context().Err()
		}
	}
	if p.roll(p.PDropRequest, peer, DropRequest, n) {
		closeReq(req)
		t.fault(DropRequest, req.Method+" "+req.URL.Path)
		return nil, ErrInjectedDrop
	}

	resp, err := t.base().RoundTrip(req)
	if err != nil {
		return nil, err
	}

	switch {
	case p.roll(p.PDropResponse, peer, DropResponse, n):
		// The server did the work; the answer evaporates. The caller must
		// treat the call as failed and replay it — idempotently.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t.fault(DropResponse, req.Method+" "+req.URL.Path)
		return nil, ErrInjectedLost
	case p.roll(p.PReset, peer, Reset, n):
		t.fault(Reset, req.Method+" "+req.URL.Path)
		resp.Body = &resetBody{inner: resp.Body, after: 1 + int(mix.Keys(p.Seed, peer, uint64(Reset), n, 1)%64)}
	case p.roll(p.PSlowBody, peer, SlowBody, n):
		t.fault(SlowBody, req.Method+" "+req.URL.Path)
		resp.Body = &slowBody{ctx: req.Context(), inner: resp.Body, delay: p.SlowBodyDelay}
	case p.roll(p.PTruncate, peer, TruncateBody, n):
		t.fault(TruncateBody, req.Method+" "+req.URL.Path)
		resp.Body = truncateBody(resp.Body, mix.Unit(mix.Keys(p.Seed, peer, uint64(TruncateBody), n, 1)))
	case p.roll(p.PMalformed, peer, MalformedBody, n):
		t.fault(MalformedBody, req.Method+" "+req.URL.Path)
		resp.Body = malformBody(resp.Body, mix.Keys(p.Seed, peer, uint64(MalformedBody), n, 1))
	}
	return resp, nil
}

// resetBody yields a few bytes, then fails like a peer reset.
type resetBody struct {
	inner io.ReadCloser
	after int
}

func (b *resetBody) Read(p []byte) (int, error) {
	if b.after <= 0 {
		return 0, ErrInjectedReset
	}
	if len(p) > b.after {
		p = p[:b.after]
	}
	n, err := b.inner.Read(p)
	b.after -= n
	if err == io.EOF {
		return n, err // the body was shorter than the reset point
	}
	if b.after <= 0 {
		return n, ErrInjectedReset
	}
	return n, err
}

func (b *resetBody) Close() error { return b.inner.Close() }

// slowBody delivers one byte per read with a pause: the slow-loris
// shape. Like a socket read under a deadline, a read ends with the
// request context's error once that ends during the pause, so a client
// with a sane timeout kills it; one without hangs.
type slowBody struct {
	ctx   context.Context
	inner io.ReadCloser
	delay time.Duration
}

func (b *slowBody) Read(p []byte) (int, error) {
	t := time.NewTimer(b.delay)
	defer t.Stop()
	select {
	case <-b.ctx.Done():
		return 0, b.ctx.Err()
	case <-t.C:
	}
	if len(p) > 1 {
		p = p[:1]
	}
	return b.inner.Read(p)
}

func (b *slowBody) Close() error { return b.inner.Close() }

// truncateBody reads the whole body and serves only a prefix, ending in
// an unexpected EOF — a torn response.
func truncateBody(inner io.ReadCloser, frac float64) io.ReadCloser {
	data, _ := io.ReadAll(inner)
	inner.Close()
	cut := int(frac * float64(len(data)))
	if cut >= len(data) && len(data) > 0 {
		cut = len(data) - 1
	}
	return &errorTailBody{data: data[:cut], err: io.ErrUnexpectedEOF}
}

// malformBody corrupts a deterministic byte of the response.
func malformBody(inner io.ReadCloser, key uint64) io.ReadCloser {
	data, _ := io.ReadAll(inner)
	inner.Close()
	if len(data) > 0 {
		i := int(key % uint64(len(data)))
		data[i] ^= 0x5a
		if data[i] == '\n' { // keep NDJSON framing plausible, corrupt content
			data[i] = '#'
		}
	}
	return &errorTailBody{data: data, err: io.EOF}
}

// errorTailBody serves a byte slice and ends with err.
type errorTailBody struct {
	data []byte
	off  int
	err  error
}

func (b *errorTailBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		if b.err == io.EOF {
			return 0, io.EOF
		}
		return 0, b.err
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *errorTailBody) Close() error { return nil }

// Listener wraps a net.Listener with seeded accept-side faults: a drawn
// fraction of inbound connections are reset immediately after accept.
// Wrap the coordinator's listener so every protocol client — workers,
// dashboards, health checks — sees occasional resets.
type Listener struct {
	net.Listener
	// Plan draws the faults; nil is a passthrough.
	Plan *Plan
	// OnFault observes injected faults; must not block.
	OnFault func(c Class, detail string)

	n        atomic.Uint64
	injected atomic.Uint64
}

// Injected reports how many connections this listener has reset.
func (l *Listener) Injected() uint64 { return l.injected.Load() }

// Accept returns the next healthy connection, resetting the drawn ones.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		p := l.Plan
		if p == nil {
			return conn, nil
		}
		n := l.n.Add(1)
		if !p.roll(p.PAcceptReset, 0, AcceptReset, n) {
			return conn, nil
		}
		// RST instead of FIN where the stack allows it: the client sees
		// "connection reset by peer", the harshest well-formed failure.
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		conn.Close()
		l.injected.Add(1)
		if l.OnFault != nil {
			l.OnFault(AcceptReset, conn.RemoteAddr().String())
		}
	}
}
