package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/faults"
	"repro/internal/pktgen"
)

// memJournal is an in-memory CellJournal that deliberately round-trips
// every outcome through JSON, exactly like the on-disk campaign journal —
// so these tests also prove CellOutcome survives the encoding bit for bit.
type memJournal struct {
	mu   sync.Mutex
	m    map[CellKey][]byte
	fail error
}

func newMemJournal() *memJournal { return &memJournal{m: map[CellKey][]byte{}} }

func (j *memJournal) Lookup(k CellKey) (CellOutcome, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, ok := j.m[k]
	if !ok {
		return CellOutcome{}, false
	}
	var out CellOutcome
	if err := json.Unmarshal(raw, &out); err != nil {
		panic(err)
	}
	return out, true
}

func (j *memJournal) Record(k CellKey, out CellOutcome) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.fail != nil {
		return j.fail
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	j.m[k] = raw
	return nil
}

// subset returns a journal holding roughly half the records — the shape a
// crash mid-campaign leaves behind.
func (j *memJournal) subset() *memJournal {
	j.mu.Lock()
	defer j.mu.Unlock()
	part := newMemJournal()
	i := 0
	for k, v := range j.m {
		if i%2 == 0 {
			part.m[k] = v
		}
		i++
	}
	return part
}

// TestRunJournalReplay: once every cell is recorded, a re-run with the
// same journal replays everything — no cell executes — and the replayed
// outcomes are identical to the originals (JSON round trip included, via
// memJournal).
func TestRunJournalReplay(t *testing.T) {
	w := Workload{Packets: 1500, Seed: 6}
	cells, ids := sweepCells(Sniffers(), []float64{300, 700}, w, 2)
	j := newMemJournal()
	ctx := context.Background()
	o := Options{Workers: 3, Experiment: "rates", Journal: j}
	first, errs := Run(ctx, cells, ids, o)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	if len(j.m) != len(cells) {
		t.Fatalf("journal holds %d records for %d cells", len(j.m), len(cells))
	}

	// Tripwire: any cell that actually runs fails the test.
	for i := range cells {
		cells[i].Wrap = func(src capture.Source) capture.Source {
			t.Error("cell executed despite a recorded outcome")
			return src
		}
	}
	second, errs2 := Run(ctx, cells, ids, o)
	for i, err := range errs2 {
		if err != nil {
			t.Fatalf("replayed cell %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("replayed outcomes differ from the recorded run")
	}

	// A different experiment id is a different campaign namespace: nothing
	// replays (the tripwire must fire, so give the cells real wraps again).
	for i := range cells {
		cells[i].Wrap = nil
	}
	o.Experiment = "buffers"
	third, _ := Run(ctx, cells, ids, o)
	if !reflect.DeepEqual(first, third) {
		t.Fatal("same cells under another experiment id computed different stats")
	}
	if len(j.m) != 2*len(cells) {
		t.Fatalf("experiment namespaces collided: %d records", len(j.m))
	}
}

// TestSweepDurableResumeByteIdentical: a sweep resumed from a half-full
// journal produces series — and a formatted table — byte-identical to an
// uninterrupted, unjournaled sweep.
func TestSweepDurableResumeByteIdentical(t *testing.T) {
	cfgs := Sniffers()
	w := Workload{Packets: 1500, Seed: 6}
	rates := []float64{250, 750}
	ctx := context.Background()
	clean := Sweep(ctx, cfgs, rates, w, 2, Options{Workers: 2})

	full := newMemJournal()
	Sweep(ctx, cfgs, rates, w, 2, Options{Workers: 2, Experiment: "rates", Journal: full})
	resumed := Sweep(ctx, cfgs, rates, w, 2, Options{Workers: 3, Experiment: "rates", Journal: full.subset()})
	if !reflect.DeepEqual(clean, resumed) {
		t.Fatal("resumed sweep differs from uninterrupted sweep")
	}
	if FormatTable("t", clean) != FormatTable("t", resumed) {
		t.Fatal("resumed table not byte-identical")
	}
}

// TestChaosDurableResumeIdentical: the same property under the fault
// plan — replayed final outcomes plus freshly measured cells reproduce the
// uninterrupted chaos sweep exactly, because fault draws are keyed by
// (seed, point, system, rep, attempt), not execution order.
func TestChaosDurableResumeIdentical(t *testing.T) {
	cfgs := Sniffers()
	w := Workload{Packets: 1500, Seed: 3}
	rates := []float64{300, 900}
	ctx := context.Background()
	plan := faults.DefaultPlan(42)
	uninterrupted := Sweep(ctx, cfgs, rates, w, 3, Options{Workers: 2, Chaos: plan})

	full := newMemJournal()
	Sweep(ctx, cfgs, rates, w, 3, Options{Workers: 2, Experiment: "rates", Journal: full, Chaos: plan})
	resumed := Sweep(ctx, cfgs, rates, w, 3, Options{Workers: 4, Experiment: "rates", Journal: full.subset(), Chaos: plan})
	if !reflect.DeepEqual(uninterrupted, resumed) {
		t.Fatal("resumed chaos sweep differs from uninterrupted one")
	}
}

// gateSource blocks a cell's first packet until released, so tests can
// hold cells in flight while they cancel the context.
type gateSource struct {
	src     capture.Source
	started chan<- struct{}
	release <-chan struct{}
	once    sync.Once
}

func (s *gateSource) Reset() { s.src.Reset() }
func (s *gateSource) Next() (pktgen.Packet, bool) {
	s.once.Do(func() {
		s.started <- struct{}{}
		<-s.release
	})
	return s.src.Next()
}

// waitGoroutines polls until the live goroutine count settles back at the
// baseline — the leak assertion of the cancellation tests.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 64<<10)
	t.Fatalf("worker goroutines leaked after cancellation: %d live, baseline %d\n%s",
		runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
}

// TestRunCancelDrainsNoLeak: cancelling mid-sweep lets in-flight cells
// finish, marks every undispatched cell with the context error, and
// leaves no worker goroutine behind.
func TestRunCancelDrainsNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	w := Workload{Packets: 800, Seed: 3, TargetRate: 6e8}
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	var cells []Cell
	for i := 0; i < 8; i++ {
		cells = append(cells, Cell{Cfg: Swan(), W: w, Wrap: func(src capture.Source) capture.Source {
			return &gateSource{src: src, started: started, release: release}
		}})
	}
	ctx, cancel := context.WithCancel(context.Background())
	var errs []error
	var outs []CellOutcome
	done := make(chan struct{})
	go func() {
		outs, errs = Run(ctx, cells, cellIDs(len(cells)), Options{Workers: 2})
		close(done)
	}()
	<-started
	<-started // both workers hold a cell in flight
	cancel()
	close(release)
	<-done

	want := RunOnce(Swan(), w)
	finished, cancelled := 0, 0
	for i, err := range errs {
		switch {
		case err == nil:
			finished++
			if !reflect.DeepEqual(outs[i].Stats, want) {
				t.Fatalf("cell %d finished with wrong stats after cancel", i)
			}
		case IsCancel(err):
			cancelled++
		default:
			t.Fatalf("cell %d: unexpected error %v", i, err)
		}
	}
	if finished < 2 {
		t.Fatalf("in-flight cells did not finish: %d done", finished)
	}
	if cancelled == 0 {
		t.Fatal("no cell carries the cancellation error")
	}
	waitGoroutines(t, base)

	// Sweep must treat the cancellation as expected, not panic.
	Sweep(ctx, []capture.Config{Swan()}, []float64{600}, w, 1, Options{})
}

// TestRunChaosCancelLeavesUnresolved: an interrupt mid-campaign leaves
// unfinished supervised cells neither accepted nor quarantined — so a
// resume measures them from scratch — records nothing spurious in the
// journal, and leaks no workers.
func TestRunChaosCancelLeavesUnresolved(t *testing.T) {
	base := runtime.NumGoroutine()
	w := Workload{Packets: 800, Seed: 3, TargetRate: 6e8}
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	cells, ids := make([]Cell, 6), make([]CellID, 6)
	for i := range cells {
		cells[i] = Cell{Cfg: Swan(), W: w, Wrap: func(src capture.Source) capture.Source {
			return &gateSource{src: src, started: started, release: release}
		}}
		ids[i] = CellID{Point: 1, Rep: i}
	}
	j := newMemJournal()
	ctx, cancel := context.WithCancel(context.Background())
	var outs []CellOutcome
	var errs []error
	done := make(chan struct{})
	go func() {
		outs, errs = Run(ctx, cells, ids, Options{Workers: 2, Experiment: "rates", Journal: j, Chaos: &faults.Plan{Seed: 1}})
		close(done)
	}()
	<-started
	<-started
	cancel()
	close(release)
	<-done

	resolved, unresolved := 0, 0
	for i, o := range outs {
		switch {
		case o.OK:
			resolved++
		case o.Quarantined:
			t.Fatalf("cell %d quarantined by an interrupt, not by its retry budget", i)
		default:
			unresolved++
			if !IsCancel(errs[i]) {
				t.Fatalf("unresolved cell %d carries %v, want the cancellation", i, errs[i])
			}
		}
	}
	if resolved < 2 || unresolved == 0 {
		t.Fatalf("drain shape wrong: %d resolved, %d unresolved", resolved, unresolved)
	}
	if len(j.m) != resolved {
		t.Fatalf("journal holds %d records for %d resolved cells", len(j.m), resolved)
	}
	waitGoroutines(t, base)
}

// TestRunChaosPreCancelledMeasuresNothing: a supervised campaign whose
// context is cancelled before it starts spends no attempt, quarantines
// nothing and records nothing — every cell stays unresolved, carrying the
// cancellation.
func TestRunChaosPreCancelledMeasuresNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := Workload{Packets: 800, Seed: 3}
	cells := []Cell{{Cfg: Swan(), W: w}, {Cfg: Moorhen(), W: w}}
	j := newMemJournal()
	outs, errs := Run(ctx, cells, cellIDs(len(cells)),
		Options{Experiment: "rates", Journal: j, Chaos: faults.DefaultPlan(1)})
	for i, o := range outs {
		if o.OK || o.Quarantined || o.Attempts != 0 || !IsCancel(errs[i]) {
			t.Fatalf("cell %d of a pre-cancelled campaign: %+v (error %v)", i, o, errs[i])
		}
	}
	if len(j.m) != 0 {
		t.Fatalf("journal holds %d records after a pre-cancelled campaign", len(j.m))
	}
}

// serialExecutor is a CellExecutor that runs every cell it receives in
// order and counts its calls.
type serialExecutor struct{ calls [][]CellID }

func (x *serialExecutor) ExecuteCells(ctx context.Context, experiment string, cells []Cell, ids []CellID, done func(int, *capture.Stats, string) error) []error {
	x.calls = append(x.calls, append([]CellID(nil), ids...))
	errs := make([]error, len(cells))
	for i, c := range cells {
		st := RunOnce(c.Cfg, c.W)
		errs[i] = done(i, &st, "w1")
	}
	return errs
}

// idleExecutor is a CellExecutor that completes none of its cells, like
// the capturing executor of cell enumeration.
type idleExecutor struct{}

func (idleExecutor) ExecuteCells(ctx context.Context, experiment string, cells []Cell, ids []CellID, done func(int, *capture.Stats, string) error) []error {
	return make([]error, len(cells))
}

// TestRunJournalFailure: a failed journal append must not masquerade as
// a measurement — the cell's error slot carries the append error, no
// EventCell is published for it, and a supervised cell is not retried as
// a failed attempt.
func TestRunJournalFailure(t *testing.T) {
	diskFull := errors.New("disk full")
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"local", Options{Workers: 2}},
		{"executor", Options{Executor: &serialExecutor{}}},
		{"supervised", Options{Workers: 2, Chaos: &faults.Plan{Seed: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := Workload{Packets: 800, Seed: 3, TargetRate: 4e8}
			cells := []Cell{{Cfg: Swan(), W: w}, {Cfg: Moorhen(), W: w}, {Cfg: Snipe(), W: w}}
			j := newMemJournal()
			j.fail = diskFull
			var mu sync.Mutex
			var published []EventKind
			o := tc.o
			o.Experiment, o.Journal = "rates", j
			o.Observer = ObserverFunc(func(ev Event) {
				mu.Lock()
				published = append(published, ev.Kind)
				mu.Unlock()
			})
			outs, errs := Run(context.Background(), cells, cellIDs(len(cells)), o)
			for i := range cells {
				if !errors.Is(errs[i], diskFull) {
					t.Fatalf("cell %d: error %v, want the journal's", i, errs[i])
				}
				if outs[i].Attempts != 1 {
					t.Fatalf("cell %d: %d attempts — a failed append was retried", i, outs[i].Attempts)
				}
			}
			if len(published) != 0 {
				t.Fatalf("published %v for cells that were never recorded", published)
			}
		})
	}
}

// TestRunExecutorContract: the executor receives every cell the journal
// does not replay in one call, in cell order; a cell it never completes
// stays a zero outcome with a nil error; and a caller's feed cache is the
// one the local pool replays.
func TestRunExecutorContract(t *testing.T) {
	w := Workload{Packets: 800, Seed: 3, TargetRate: 4e8}
	cells, ids := sweepCells([]capture.Config{Swan(), Moorhen()}, []float64{300, 600}, w, 1)
	j := newMemJournal()
	ctx := context.Background()
	if _, errs := Run(ctx, cells[:1], ids[:1], Options{Experiment: "rates", Journal: j}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	x := &serialExecutor{}
	Run(ctx, cells, ids, Options{Experiment: "rates", Journal: j, Executor: x})
	if len(x.calls) != 1 || !reflect.DeepEqual(x.calls[0], ids[1:]) {
		t.Fatalf("executor calls %v, want one call with %v", x.calls, ids[1:])
	}

	outs, errs := Run(ctx, cells, ids, Options{Executor: idleExecutor{}})
	for i := range cells {
		if errs[i] != nil || !reflect.DeepEqual(outs[i], CellOutcome{}) {
			t.Fatalf("uncompleted cell %d: outcome %+v, error %v", i, outs[i], errs[i])
		}
	}

	feeds := NewFeedCache(0)
	Run(ctx, cells, ids, Options{Workers: 2, Feeds: feeds})
	if hits, misses := feeds.Counters(); misses != 2 || hits != 2 {
		t.Fatalf("caller's cache: %d hits, %d misses; want 2 and 2", hits, misses)
	}
}
