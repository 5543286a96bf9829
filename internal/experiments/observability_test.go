package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/capture"
	"repro/internal/core"
)

// TestWhyFlagAppendsCauses checks the -why plumbing: with Why off the
// output is unchanged; with Why on, the drop-cause table is appended.
func TestWhyFlagAppendsCauses(t *testing.T) {
	for _, id := range []string{"fig6.2-nosmp", "fig6.4-nosmp", "fig6.7"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := Find(id)
			if err != nil {
				t.Fatal(err)
			}
			plain := e.Run(fast())
			o := fast()
			o.Why = true
			withWhy := e.Run(o)
			if !strings.HasPrefix(withWhy, plain) {
				t.Fatalf("-why must only append, not alter the table:\n%s", withWhy)
			}
			if !strings.Contains(withWhy, "# why: drop causes per point") {
				t.Fatalf("-why output missing the cause table:\n%s", withWhy)
			}
		})
	}
}

// TestRecordsConserve checks the -json records: every series experiment
// yields one record per (x, system) point, and dropped+captured packets
// reconcile with the generated count for single-repetition runs.
func TestRecordsConserve(t *testing.T) {
	e, err := Find("fig6.2-nosmp")
	if err != nil {
		t.Fatal(err)
	}
	recs := Records(e, fast())
	if len(recs) != 2*4 { // 2 rates × 4 systems
		t.Fatalf("got %d records, want 8", len(recs))
	}
	for _, r := range recs {
		if r.Experiment != e.ID || r.System == "" || r.Generated == 0 {
			t.Fatalf("malformed record: %+v", r)
		}
		var perApp, shared uint64
		for c := capture.Cause(0); c < capture.NumCauses; c++ {
			if c.Shared() {
				shared += r.Drops.Drops[c].Packets
			} else {
				perApp += r.Drops.Drops[c].Packets
			}
		}
		captured := uint64(r.RatePct / 100 * float64(r.Generated))
		total := captured + perApp + shared
		if diff := int64(total) - int64(r.Generated); diff > 1 || diff < -1 {
			t.Fatalf("record does not conserve (captured %d + drops %d+%d vs generated %d): %+v",
				captured, perApp, shared, r.Generated, r)
		}
		if _, err := json.Marshal(r); err != nil {
			t.Fatalf("record not marshalable: %v", err)
		}
	}
}

// TestRecordsNilForTextOnly: experiments without a series form yield no
// records (the -json mode skips them).
func TestRecordsNilForTextOnly(t *testing.T) {
	e, err := Find("fig4.1")
	if err != nil {
		t.Fatal(err)
	}
	if e.Series != nil {
		t.Fatal("fig4.1 should have no series form")
	}
	if recs := Records(e, fast()); recs != nil {
		t.Fatalf("text-only experiment produced %d records", len(recs))
	}
}

// TestWhyAndJSONGolden locks the -why table and the NDJSON record stream
// of a small deterministic sweep against golden files.
func TestWhyAndJSONGolden(t *testing.T) {
	e, err := Find("fig6.2-nosmp")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Packets: 3000, Reps: 1, Seed: 1, Rates: []float64{300, 900}, Why: true}

	var jsonOut strings.Builder
	enc := json.NewEncoder(&jsonOut)
	for _, r := range Records(e, o) {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	for name, got := range map[string]string{
		"why.golden":  e.Run(o),
		"json.golden": jsonOut.String(),
	} {
		golden := filepath.Join("testdata", name)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
		}
		if got != string(want) {
			t.Fatalf("%s drifted:\n--- got ---\n%s--- want ---\n%s", name, got, want)
		}
	}
}

// TestCellEventsCarryPointX checks that a cell event carries the plotted
// x of the point it belongs to, not its train's rate: on per-cell sweeps
// over another axis (buffer size, moderation delay, hour of the day) the
// two differ, and every EventCell must agree with the EventPoint of the
// same point.
func TestCellEventsCarryPointX(t *testing.T) {
	for _, id := range []string{"fig6.4-nosmp", "ext-moderation", "ext-production"} {
		t.Run(id, func(t *testing.T) {
			e, err := Find(id)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var cells []core.Event
			pointX := map[uint64]float64{}
			o := Options{Packets: 2000, Parallelism: 2}
			o.Observer = core.ObserverFunc(func(ev core.Event) {
				mu.Lock()
				defer mu.Unlock()
				switch ev.Kind {
				case core.EventCell:
					cells = append(cells, ev)
				case core.EventPoint:
					pointX[ev.Point] = ev.X
				}
			})
			e.Series(o)
			if len(cells) == 0 {
				t.Fatal("no cell events")
			}
			for _, ev := range cells {
				x, ok := pointX[ev.Point]
				if !ok {
					t.Fatalf("cell %s at point %d: no point event", ev.System, ev.Point)
				}
				if ev.X != x {
					t.Errorf("cell %s at point %d: X = %g, point event X = %g", ev.System, ev.Point, ev.X, x)
				}
			}
		})
	}
}
