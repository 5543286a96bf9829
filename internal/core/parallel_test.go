package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/capture"
	"repro/internal/pktgen"
)

// TestSweepParallelMatchesSerial is the engine's hard invariant: for any
// worker count, the reassembled series — and hence the formatted table —
// are byte-identical to the serial path.
func TestSweepParallelMatchesSerial(t *testing.T) {
	cfgs := Sniffers()
	w := Workload{Packets: 2500, Seed: 5}
	rates := []float64{150, 450, 900}
	serial := Sweep(context.Background(), cfgs, rates, w, 2, Options{})
	serialTbl := FormatTable("t", serial)
	for _, workers := range []int{1, 3, 8, -1} {
		par := Sweep(context.Background(), cfgs, rates, w, 2, Options{Workers: workers})
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d: series differ from serial", workers)
		}
		if tbl := FormatTable("t", par); tbl != serialTbl {
			t.Fatalf("workers=%d: formatted table differs:\n%s\nvs\n%s", workers, tbl, serialTbl)
		}
	}
}

// TestSweepSerialDelegationUnchanged: the zero Options (the serial
// case) and a four-worker pool agree.
func TestSweepSerialDelegationUnchanged(t *testing.T) {
	cfgs := []capture.Config{Swan()}
	w := Workload{Packets: 2000, Seed: 9}
	a := Sweep(context.Background(), cfgs, []float64{300, 800}, w, 2, Options{})
	b := Sweep(context.Background(), cfgs, []float64{300, 800}, w, 2, Options{Workers: 4})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the serial sweep differs from the parallel one")
	}
}

// cellIDs names n cells of one point by repetition.
func cellIDs(n int) []CellID {
	ids := make([]CellID, n)
	for i := range ids {
		ids[i] = CellID{Point: 1, Rep: i}
	}
	return ids
}

func TestRunOrderAndFeedSharing(t *testing.T) {
	w := Workload{Packets: 1500, Seed: 4, TargetRate: 6e8}
	var cells []Cell
	for _, cfg := range Sniffers() {
		cells = append(cells, Cell{Cfg: cfg, W: w})
	}
	outs, errs := Run(context.Background(), cells, cellIDs(len(cells)), Options{Workers: 4})
	if len(outs) != len(cells) {
		t.Fatalf("got %d results for %d cells", len(outs), len(cells))
	}
	for i, out := range outs {
		if errs[i] != nil || !out.OK || out.Attempts != 1 {
			t.Fatalf("cell %d: outcome %+v, error %v", i, out, errs[i])
		}
		want := RunOnce(cells[i].Cfg, cells[i].W)
		if !reflect.DeepEqual(out.Stats, want) {
			t.Errorf("cell %d (%s): parallel result differs from direct run", i, cells[i].Cfg.Name)
		}
	}
}

// panicSource panics after emitting a few packets — the "deliberately
// panicking System hook" of the worker-recovery regression test.
type panicSource struct {
	src   capture.Source
	n     int
	after int
}

func (s *panicSource) Reset() { s.src.Reset(); s.n = 0 }
func (s *panicSource) Next() (p pktgen.Packet, ok bool) {
	if s.n >= s.after {
		panic("injected cell panic")
	}
	s.n++
	return s.src.Next()
}

// TestRunWorkerPanicRecovered is the regression test for the worker
// panic: one panicking cell must not kill the process or leave sibling
// goroutines blocked on the job channel — every other cell completes and
// the failed cell comes back as a *CellPanicError the supervisor can
// retry.
func TestRunWorkerPanicRecovered(t *testing.T) {
	w := Workload{Packets: 1200, Seed: 4, TargetRate: 6e8}
	var cells []Cell
	for _, cfg := range Sniffers() {
		cells = append(cells, Cell{Cfg: cfg, W: w})
	}
	bad := 1
	cells[bad].Wrap = func(src capture.Source) capture.Source {
		return &panicSource{src: src, after: 5}
	}
	// More cells than workers so a dying worker would strand queued jobs.
	outs, errs := Run(context.Background(), cells, cellIDs(len(cells)), Options{Workers: 2})
	for i := range cells {
		if i == bad {
			var pe *CellPanicError
			if !errors.As(errs[i], &pe) {
				t.Fatalf("cell %d: want CellPanicError, got %v", i, errs[i])
			}
			if pe.Index != bad || pe.System != cells[bad].Cfg.Name || pe.Value != "injected cell panic" {
				t.Fatalf("panic error = %+v", pe)
			}
			if outs[i].OK {
				t.Fatal("a panicked cell reports an accepted outcome")
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("healthy cell %d failed: %v", i, errs[i])
		}
		want := RunOnce(cells[i].Cfg, cells[i].W)
		if !reflect.DeepEqual(outs[i].Stats, want) {
			t.Errorf("cell %d: result differs after sibling panic", i)
		}
	}

	// Sweep's contract: the panic still surfaces (as a typed error
	// value), but only after the pool has drained.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Sweep swallowed the cell panic")
		}
		if _, ok := r.(*CellPanicError); !ok {
			t.Fatalf("Sweep re-raised %T, want *CellPanicError", r)
		}
	}()
	broken := Swan()
	broken.OS = 99 // NewSystem panics on an unknown OS
	Sweep(context.Background(), []capture.Config{Swan(), broken, Moorhen()}, []float64{600}, w, 1, Options{Workers: 2})
}

func TestAggregateDefensive(t *testing.T) {
	// reps == 0 must not divide by zero or leave the ±Inf sentinels behind.
	pt := aggregatePoint("x", nil)
	if pt.RateMin != 0 || pt.RateMax != 0 || pt.Rate != 0 {
		t.Fatalf("empty aggregation not zeroed: %+v", pt)
	}
	// A 100%-capture run must be representable (the old sentinel was an
	// arbitrary 200 that only worked because rates are percentages).
	st := RunOnce(Moorhen(), Workload{Packets: 2000, Seed: 1, TargetRate: 1e8})
	agg := aggregatePoint("moorhen", []capture.Stats{st})
	if agg.RateMin != agg.RateMax || agg.RateMin != st.CaptureRate() {
		t.Fatalf("single-run aggregation: %+v vs rate %.2f", agg, st.CaptureRate())
	}
}

func TestWorkersConvention(t *testing.T) {
	if Workers(0) != 0 {
		t.Fatal("Workers(0) must keep the serial path")
	}
	if Workers(3) != 3 {
		t.Fatal("Workers(n) must be n")
	}
	if Workers(-1) < 1 {
		t.Fatal("Workers(<0) must resolve to at least one CPU")
	}
}
