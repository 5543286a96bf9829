package dispatch

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/experiments"
)

// fakeClock drives the coordinator's monotonic clock from the test.
type fakeClock struct{ ns atomic.Int64 }

func (f *fakeClock) now() time.Duration      { return time.Duration(f.ns.Load()) }
func (f *fakeClock) advance(d time.Duration) { f.ns.Add(int64(d)) }
func (f *fakeClock) set(d time.Duration)     { f.ns.Store(int64(d)) }

// newTestCoordinator builds a coordinator on a fake clock. The tests
// drive expiry explicitly: they advance the clock and then sweep, lease
// or wake the coordinator instead of waiting for its ticker.
func newTestCoordinator(t *testing.T, clk *fakeClock) *Coordinator {
	t.Helper()
	c := New("test-campaign", "fp-test")
	c.now = clk.now
	return c
}

// testCells builds n tiny real measurement cells (they must actually
// run: the budget-exhausted path measures them locally).
func testCells(n int) ([]core.Cell, []core.CellID) {
	cells := make([]core.Cell, n)
	ids := make([]core.CellID, n)
	for i := range cells {
		cells[i] = core.Cell{Cfg: core.Swan(), W: core.Workload{
			Packets: 200, Seed: uint64(i + 1), TargetRate: 400e6,
		}}
		ids[i] = core.CellID{Point: uint64(i), Rep: 0}
	}
	return cells, ids
}

// collector is the engine-side done callback: it records which worker
// finalized each cell and how often each slot was finalized.
type collector struct {
	mu      sync.Mutex
	workers map[int]string
	counts  map[int]int
}

func newCollector() *collector {
	return &collector{workers: map[int]string{}, counts: map[int]int{}}
}

func (c *collector) done(i int, st *capture.Stats, worker string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[i] = worker
	c.counts[i]++
	return nil
}

// execute runs ExecuteCells in the background, waits until the
// coordinator has the cell set queued (a Lease call before that returns
// the ambiguous "nothing leasable"), and returns a wait func.
func execute(t *testing.T, c *Coordinator, cells []core.Cell, ids []core.CellID, col *collector) func() []error {
	t.Helper()
	ch := make(chan []error, 1)
	go func() {
		ch <- c.ExecuteCells(context.Background(), "exp", cells, ids, col.done)
	}()
	waitActive(t, c)
	return func() []error { return <-ch }
}

// waitActive blocks until ExecuteCells has installed its cell set.
func waitActive(t *testing.T, c *Coordinator) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		active := c.cur != nil
		c.mu.Unlock()
		if active {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("ExecuteCells never queued its cells")
		}
		time.Sleep(time.Millisecond)
	}
}

// completeAll reports every cell of a lease as successfully measured
// (with placeholder stats — protocol tests don't run real captures).
func completeAll(t *testing.T, c *Coordinator, worker string, l *GrantedLease) {
	t.Helper()
	recs := make([]Record, len(l.Keys))
	for i, k := range l.Keys {
		recs[i] = Record{Key: k, Out: core.CellOutcome{
			Stats: capture.Stats{Generated: 200}, OK: true, Attempts: 1,
		}}
	}
	if err := c.Complete(worker, c.Fingerprint, l.ID, recs); err != nil {
		t.Fatalf("Complete: %v", err)
	}
}

// mustLease requests one lease for worker and fails the test on error.
func mustLease(t *testing.T, c *Coordinator, worker string) *GrantedLease {
	t.Helper()
	l, err := c.Lease(worker, c.Fingerprint)
	if err != nil {
		t.Fatalf("Lease(%s): %v", worker, err)
	}
	return l
}

func TestLeaseLifecycle(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	n := maxLease + 3 // two leases: a full one and the rest
	cells, ids := testCells(n)
	col := newCollector()
	wait := execute(t, c, cells, ids, col)

	seen := map[string]bool{}
	for {
		l := mustLease(t, c, "w1")
		if l == nil {
			break
		}
		if len(l.Keys) > maxLease {
			t.Fatalf("lease has %d cells, max is %d", len(l.Keys), maxLease)
		}
		for _, k := range l.Keys {
			if seen[k.System+fmt.Sprint(k.Point, k.Rep)] {
				t.Fatalf("cell %+v leased twice without expiry", k)
			}
			seen[k.System+fmt.Sprint(k.Point, k.Rep)] = true
		}
		completeAll(t, c, "w1", l)
	}
	for i, err := range wait() {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		if col.counts[i] != 1 {
			t.Fatalf("cell %d finalized %d times, want exactly 1", i, col.counts[i])
		}
		if col.workers[i] != "w1" {
			t.Fatalf("cell %d attributed to %q, want w1", i, col.workers[i])
		}
	}
	st := c.Stats()
	if st.Completed != uint64(n) || st.Granted != 2 || st.Expired != 0 || st.Duplicates != 0 {
		t.Fatalf("stats = %+v, want %d completed in 2 leases, 0 expired, 0 duplicates", st, n)
	}
}

// TestExpiryDoubleGrantAndLateCompletion is the protocol's hardest
// corner: a lease expires, its cells are granted to a second worker,
// and then BOTH workers complete. The first completion to arrive wins
// the finalization; the loser's copy must be accepted as a duplicate
// (journal last-write-wins), never double-finalized, and cell
// conservation must hold.
func TestExpiryDoubleGrantAndLateCompletion(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	j := &memJournal{}
	c.Journal = j
	cells, ids := testCells(3)
	col := newCollector()
	wait := execute(t, c, cells, ids, col)

	l1 := mustLease(t, c, "w1")
	if l1 == nil || len(l1.Keys) != 3 {
		t.Fatalf("first lease = %+v, want all 3 cells", l1)
	}
	// w1 goes dark; the lease expires, and after the re-dispatch backoff
	// (which starts at the expiry sweep) the cells are re-grantable.
	clk.advance(leaseTTL + time.Millisecond)
	c.mu.Lock()
	c.sweepLocked()
	c.mu.Unlock()
	clk.advance(requeueBackoff + time.Millisecond)
	l2 := mustLease(t, c, "w2")
	if l2 == nil || len(l2.Keys) != 3 {
		t.Fatalf("post-expiry lease = %+v, want all 3 cells re-granted", l2)
	}
	if got := c.Stats().Expired; got != 1 {
		t.Fatalf("expired leases = %d, want 1", got)
	}

	// w2 completes first and wins; w1's late completion (of an expired
	// lease) arrives afterwards.
	completeAll(t, c, "w2", l2)
	completeAll(t, c, "w1", l1)

	for i, err := range wait() {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if col.counts[i] != 1 {
			t.Fatalf("cell %d finalized %d times, want exactly 1 (conservation)", i, col.counts[i])
		}
		if col.workers[i] != "w2" {
			t.Fatalf("cell %d won by %q, want w2 (first completion wins)", i, col.workers[i])
		}
	}
	st := c.Stats()
	if st.Duplicates != 3 {
		t.Fatalf("duplicates = %d, want 3 (w1's late copies)", st.Duplicates)
	}
	// The duplicates went to the journal, where last-write-wins resolves
	// them: 3 direct duplicate records.
	if n := j.count(); n != 3 {
		t.Fatalf("journal got %d duplicate records, want 3", n)
	}
}

func TestHeartbeatPreventsExpiry(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	cells, ids := testCells(2)
	col := newCollector()
	wait := execute(t, c, cells, ids, col)

	l := mustLease(t, c, "w1")
	if l == nil {
		t.Fatal("no lease granted")
	}
	// Three TTL periods pass, but a heartbeat lands inside each one.
	for i := 0; i < 3; i++ {
		clk.advance(leaseTTL / 2)
		c.Heartbeat("w1")
		clk.advance(leaseTTL / 2)
		c.Heartbeat("w1")
	}
	if l2 := mustLease(t, c, "w2"); l2 != nil {
		t.Fatalf("w2 got a lease (%+v) although w1 is heartbeating", l2)
	}
	if got := c.Stats().Expired; got != 0 {
		t.Fatalf("expired = %d, want 0 under heartbeats", got)
	}
	completeAll(t, c, "w1", l)
	wait()
}

// TestHeartbeatRacesExpiry drives the clock exactly to the deadline: a
// heartbeat that lands at the same instant as a sweep must either save
// the lease or lose it, but never corrupt conservation. Run under
// -race, this is the lock-discipline check for Heartbeat vs sweep.
func TestHeartbeatRacesExpiry(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	cells, ids := testCells(4)
	col := newCollector()
	wait := execute(t, c, cells, ids, col)

	l := mustLease(t, c, "w1")
	if l == nil {
		t.Fatal("no lease granted")
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // hammer heartbeats
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Heartbeat("w1")
			}
		}
	}()
	go func() { // hammer the clock across the deadline, sweeping as it goes
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			clk.advance(leaseTTL / 100)
			c.wakeup()
		}
		close(stop)
	}()
	wg.Wait()

	// Whatever the race decided, completing every cell (re-leasing any
	// that expired) must finalize each exactly once.
	completeAll(t, c, "w1", l)
	for {
		clk.advance(leaseTTL + requeueBackoff)
		l2 := mustLease(t, c, "w2")
		if l2 == nil {
			break
		}
		completeAll(t, c, "w2", l2)
	}
	for i, err := range wait() {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	for i := 0; i < 4; i++ {
		if col.counts[i] != 1 {
			t.Fatalf("cell %d finalized %d times, want exactly 1", i, col.counts[i])
		}
	}
}

func TestStragglerRedispatch(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	cells, ids := testCells(2)
	col := newCollector()
	wait := execute(t, c, cells, ids, col)

	l1 := mustLease(t, c, "slow")
	if l1 == nil {
		t.Fatal("no lease granted")
	}
	// The slow worker heartbeats forever but never completes. Past the
	// straggler threshold its cells become leasable again WITHOUT the
	// lease expiring.
	for age := time.Duration(0); age < straggler; age += leaseTTL / 2 {
		clk.advance(leaseTTL / 2)
		c.Heartbeat("slow")
	}
	c.mu.Lock()
	c.sweepLocked()
	c.mu.Unlock()
	l2 := mustLease(t, c, "fast")
	if l2 == nil || len(l2.Keys) != 2 {
		t.Fatalf("straggler cells not re-dispatched: lease = %+v", l2)
	}
	st := c.Stats()
	if st.Redispatched != 1 || st.Expired != 0 {
		t.Fatalf("stats = %+v, want 1 re-dispatch and 0 expiries", st)
	}
	// The fast copy wins; the straggler's eventual answer is a duplicate.
	completeAll(t, c, "fast", l2)
	completeAll(t, c, "slow", l1)
	wait()
	for i := 0; i < 2; i++ {
		if col.workers[i] != "fast" || col.counts[i] != 1 {
			t.Fatalf("cell %d: worker=%q counts=%d, want fast/1", i, col.workers[i], col.counts[i])
		}
	}
	if got := c.Stats().Duplicates; got != 2 {
		t.Fatalf("duplicates = %d, want 2", got)
	}
}

// TestRetryBudgetExhaustedRunsLocally starves a cell through its whole
// dispatch budget (every lease expires) and asserts the coordinator
// measures it locally rather than looping forever. Each lease goes to a
// different worker, so none of them reaches the strikeout.
func TestRetryBudgetExhaustedRunsLocally(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	cells, ids := testCells(1)
	col := newCollector()
	wait := execute(t, c, cells, ids, col)

	for attempt := 0; attempt <= retryBudget; attempt++ {
		worker := fmt.Sprintf("bad-%d", attempt)
		var l *GrantedLease
		for l == nil { // wait out the backoff gate
			clk.advance(leaseTTL)
			l = mustLease(t, c, worker)
		}
		clk.advance(leaseTTL + time.Millisecond) // lease dies
	}
	c.wakeup() // the sweep expires the last lease and spends the budget
	for i, err := range wait() {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	if col.workers[0] != "coordinator" {
		t.Fatalf("cell finalized by %q, want the coordinator's local fallback", col.workers[0])
	}
	st := c.Stats()
	if st.LocalCells != 1 || st.Expired != retryBudget+1 {
		t.Fatalf("stats = %+v, want 1 local cell after %d expired leases", st, retryBudget+1)
	}
}

// TestNoWorkerRunsCellsLocally pins the fallback for a campaign whose
// workers are all gone (or never came): cells that were never leased
// never expire, so once no worker has called for the straggler window the
// coordinator measures every undone cell itself.
func TestNoWorkerRunsCellsLocally(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	cells, ids := testCells(3)
	col := newCollector()
	wait := execute(t, c, cells, ids, col)

	clk.advance(straggler)
	c.wakeup()
	for i, err := range wait() {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	for i := range cells {
		if col.workers[i] != "coordinator" || col.counts[i] != 1 {
			t.Fatalf("cell %d: worker=%q counts=%d, want coordinator/1", i, col.workers[i], col.counts[i])
		}
	}
	if st := c.Stats(); st.LocalCells != uint64(len(cells)) {
		t.Fatalf("local cells = %d, want %d", st.LocalCells, len(cells))
	}
}

// TestReturningWorkerGetsNoLocalCells: cells handed to the coordinator's
// own run leave the dispatch queue, so a worker that comes back while that
// run is under way cannot lease and measure them a second time.
func TestReturningWorkerGetsNoLocalCells(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	cells, ids := testCells(3)
	var (
		once    sync.Once
		late    *GrantedLease
		lateErr error
	)
	done := func(i int, st *capture.Stats, worker string) error {
		once.Do(func() { late, lateErr = c.Lease("late", c.Fingerprint) })
		return nil
	}
	ch := make(chan []error, 1)
	go func() { ch <- c.ExecuteCells(context.Background(), "exp", cells, ids, done) }()
	waitActive(t, c)

	clk.advance(straggler)
	c.wakeup()
	for i, err := range <-ch {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	if lateErr != nil || late != nil {
		t.Fatalf("returning worker leased %+v (err %v) during the local run", late, lateErr)
	}
	if st := c.Stats(); st.Granted != 0 || st.Duplicates != 0 || st.LocalCells != uint64(len(cells)) {
		t.Fatalf("stats = %+v, want no grants or duplicates and %d local cells", st, len(cells))
	}
}

// TestHeartbeatKeepsCellsRemote: a worker that heartbeats a live lease
// past the idle window is still there, so its cells stay remote.
func TestHeartbeatKeepsCellsRemote(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	cells, ids := testCells(2)
	col := newCollector()
	wait := execute(t, c, cells, ids, col)

	l := mustLease(t, c, "slow")
	if l == nil || len(l.Keys) != 2 {
		t.Fatalf("lease = %+v, want both cells", l)
	}
	for idle := time.Duration(0); idle <= straggler; idle += leaseTTL / 2 {
		clk.advance(leaseTTL / 2)
		c.Heartbeat("slow")
	}
	c.mu.Lock()
	abandoned := c.abandonedLocked(c.cur)
	c.mu.Unlock()
	if abandoned != nil {
		t.Fatalf("cells %v taken for a local run while the worker heartbeats", abandoned)
	}
	completeAll(t, c, "slow", l)
	wait()
	for i := range cells {
		if col.workers[i] != "slow" {
			t.Fatalf("cell %d finalized by %q, want the worker", i, col.workers[i])
		}
	}
	if st := c.Stats(); st.LocalCells != 0 {
		t.Fatalf("local cells = %d, want 0", st.LocalCells)
	}
}

// TestQuarantineAfterRepeatedExpiry: a worker that loses strikeout
// leases is refused from then on. The strikeout equals the retry budget,
// so the cell is still in play for a healthy worker afterwards.
func TestQuarantineAfterRepeatedExpiry(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	cells, ids := testCells(1)
	col := newCollector()
	wait := execute(t, c, cells, ids, col)

	for i := 0; i < strikeout; i++ {
		var l *GrantedLease
		for l == nil {
			clk.advance(leaseTTL)
			l = mustLease(t, c, "flaky")
		}
		clk.advance(leaseTTL + time.Millisecond)
	}
	c.mu.Lock()
	c.sweepLocked()
	c.mu.Unlock()
	if _, err := c.Lease("flaky", c.Fingerprint); !IsQuarantined(err) {
		t.Fatalf("flaky worker's lease error = %v, want quarantine", err)
	}
	// A healthy worker still finishes the campaign.
	var l *GrantedLease
	for l == nil {
		clk.advance(leaseTTL)
		l = mustLease(t, c, "good")
	}
	completeAll(t, c, "good", l)
	wait()
	if col.workers[0] != "good" {
		t.Fatalf("cell finalized by %q, want the healthy worker", col.workers[0])
	}
}

func TestFingerprintRefusalCoordinator(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoordinator(t, clk)
	_, err := c.Lease("w1", "some-other-fp")
	fe, ok := err.(*FingerprintError)
	if !ok {
		t.Fatalf("Lease with wrong fingerprint = %v, want *FingerprintError", err)
	}
	if fe.Want != c.Fingerprint || fe.Got != "some-other-fp" {
		t.Fatalf("FingerprintError = %+v", fe)
	}
	if err := c.Complete("w1", "some-other-fp", 1, nil); err == nil {
		t.Fatal("Complete with wrong fingerprint accepted")
	}
}

// TestCoordinatorRestartMidCampaign kills the coordinator (by
// abandoning it) after grants were journaled, then resumes a fresh
// coordinator over the same WAL: the dispatch-attempt counts must
// survive, so the retry budget cannot be reset by a coordinator crash.
func TestCoordinatorRestartMidCampaign(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{}

	c1 := newTestCoordinator(t, clk)
	if err := c1.OpenWAL(dir, false); err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	cells, ids := testCells(maxLease + 1)
	col := newCollector()
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan []error, 1)
	go func() { ch <- c1.ExecuteCells(ctx, "exp", cells, ids, col.done) }()
	waitActive(t, c1)

	l := mustLease(t, c1, "w1") // all cells but the last granted once
	if l == nil || len(l.Keys) != maxLease {
		t.Fatalf("lease = %+v, want %d cells", l, maxLease)
	}
	cancel() // coordinator "crashes" mid-campaign
	<-ch
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c2 := newTestCoordinator(t, clk)
	if err := c2.OpenWAL(dir, true); err != nil {
		t.Fatalf("OpenWAL(resume): %v", err)
	}
	defer c2.Close()
	for _, k := range l.Keys {
		if got := c2.Attempts(k); got != 1 {
			t.Fatalf("resumed attempt count of granted cell %+v = %d, want 1", k, got)
		}
	}
	last := len(cells) - 1
	other := core.KeyOf("exp", cells[last], ids[last])
	if got := c2.Attempts(other); got != 0 {
		t.Fatalf("resumed attempt count of ungranted cell = %d, want 0", got)
	}

	// Resuming with the wrong fingerprint must refuse the WAL.
	c3 := New("test-campaign", "different-fp")
	if err := c3.OpenWAL(dir, true); err == nil {
		c3.Close()
		t.Fatal("OpenWAL accepted a WAL recorded under a different fingerprint")
	}
}

// TestWorkerEndToEndHTTP runs the real Worker against the real HTTP
// API over httptest, with a real (tiny) experiment, and checks the
// engine-side finalization count.
func TestWorkerEndToEndHTTP(t *testing.T) {
	// Mid-band rates: the slow simulated systems take pathologically long
	// at the bottom of the rate range, and this test is about the
	// protocol, not the simulator.
	o := experiments.Options{Packets: 300, Reps: 1, Seed: 1, Rates: []float64{400, 800}}
	fp, err := experiments.Fingerprint(o)
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	const expID = "fig6.3-smp"
	set, err := experiments.EnumerateCells(expID, o)
	if err != nil {
		t.Fatalf("EnumerateCells: %v", err)
	}
	if set.Len() == 0 {
		t.Fatalf("experiment %s enumerated no cells", expID)
	}

	c := New("e2e", fp)
	mux := newMux(c)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	col := newCollector()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan []error, 1)
	go func() {
		done <- c.ExecuteCells(ctx, expID, set.Cells, set.IDs, col.done)
	}()

	w := &Worker{ID: "tw", BaseURL: srv.URL, Options: o}
	werr := make(chan error, 1)
	go func() { werr <- w.Run(ctx) }()

	errs := <-done
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	c.Finish() // worker's next poll sees 410 and exits
	if err := <-werr; err != nil {
		t.Fatalf("worker: %v", err)
	}
	for i := 0; i < set.Len(); i++ {
		if col.counts[i] != 1 || col.workers[i] != "tw" {
			t.Fatalf("cell %d: counts=%d worker=%q, want 1/tw", i, col.counts[i], col.workers[i])
		}
	}
	if got := c.Stats().Completed; got != uint64(set.Len()) {
		t.Fatalf("completed = %d, want %d", got, set.Len())
	}
}

// TestWorkerFingerprintMismatchHTTP starts a worker whose options hash
// differently: discovery must return the typed mismatch error without a
// single lease being requested.
func TestWorkerFingerprintMismatchHTTP(t *testing.T) {
	c := New("e2e", "coordinator-fp")
	srv := httptest.NewServer(newMux(c))
	defer srv.Close()

	w := &Worker{ID: "tw", BaseURL: srv.URL,
		Options: experiments.Options{Packets: 123, Reps: 1, Seed: 9}}
	err := w.Run(context.Background())
	if _, ok := err.(*FingerprintMismatchError); !ok {
		t.Fatalf("worker error = %v, want *FingerprintMismatchError", err)
	}
	if got := c.Stats().Granted; got != 0 {
		t.Fatalf("mismatched worker was granted %d leases, want 0", got)
	}
}

// TestFingerprintRefusalNamesRings: a worker whose options differ from
// the coordinator's only in Rings is refused on both sides of the
// protocol with a hint that names -rings.
func TestFingerprintRefusalNamesRings(t *testing.T) {
	coordOpts := experiments.Options{Packets: 123, Reps: 1, Seed: 9}
	workerOpts := coordOpts
	workerOpts.Rings = []int{2}
	coordFP, err := experiments.Fingerprint(coordOpts)
	if err != nil {
		t.Fatal(err)
	}
	workerFP, err := experiments.Fingerprint(workerOpts)
	if err != nil {
		t.Fatal(err)
	}
	if coordFP == workerFP {
		t.Fatal("Rings does not enter the campaign fingerprint")
	}

	c := New("e2e", coordFP)
	if _, err := c.Lease("w1", workerFP); err == nil || !strings.Contains(err.Error(), "-rings") {
		t.Errorf("coordinator refusal %v does not name -rings", err)
	}
	srv := httptest.NewServer(newMux(c))
	defer srv.Close()
	w := &Worker{ID: "tw", BaseURL: srv.URL, Options: workerOpts}
	err = w.Run(context.Background())
	if _, ok := err.(*FingerprintMismatchError); !ok || !strings.Contains(err.Error(), "-rings") {
		t.Errorf("worker refusal %v does not name -rings", err)
	}
}

func newMux(c *Coordinator) *http.ServeMux {
	mux := http.NewServeMux()
	c.Register(mux)
	return mux
}

// memJournal is an in-memory CellJournal counting duplicate records.
type memJournal struct {
	mu   sync.Mutex
	recs []core.CellKey
}

func (m *memJournal) Record(k core.CellKey, out core.CellOutcome) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs = append(m.recs, k)
	return nil
}

func (m *memJournal) Lookup(k core.CellKey) (core.CellOutcome, bool) {
	return core.CellOutcome{}, false
}

func (m *memJournal) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recs)
}

// walReplayableAfterCrash exercises torn-tail tolerance of the dispatch
// WAL: a grant frame cut mid-write must not poison the resume.
func TestWALTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	c := New("camp", "fp")
	if err := c.OpenWAL(dir, false); err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	c.mu.Lock()
	err := c.walAppendLocked(walRecord{T: "grant", Lease: 1, Worker: "w",
		Keys: []core.CellKey{{Experiment: "e", Point: 7, System: "swan", Rep: 0}}})
	c.mu.Unlock()
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	c.Close()

	// Tear the tail: append garbage with no newline.
	path := filepath.Join(dir, WALFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`deadbeef {"t":"grant","lease":2`)
	f.Close()

	c2 := New("camp", "fp")
	if err := c2.OpenWAL(dir, true); err != nil {
		t.Fatalf("OpenWAL over torn WAL: %v", err)
	}
	defer c2.Close()
	if got := c2.Attempts(core.CellKey{Experiment: "e", Point: 7, System: "swan", Rep: 0}); got != 1 {
		t.Fatalf("replayed attempts = %d, want 1 (torn frame discarded, good frame kept)", got)
	}
}
