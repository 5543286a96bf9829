package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// checkGolden compares got against testdata/name; UPDATE_GOLDEN=1
// rewrites the file instead.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
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

// recordStreams runs e's series form once on two workers and returns two
// NDJSON renderings of its points: the buffered Records rows
// (system-major) and the EventPoint stream the `experiment -json` writer
// consumes (layout order). The goldens were recorded serially, so they
// also pin determinism across worker counts.
func recordStreams(t *testing.T, e Experiment, o Options) (records, stream string) {
	t.Helper()
	o.Parallelism = 2
	var mu sync.Mutex
	var sb strings.Builder
	senc := json.NewEncoder(&sb)
	o.Observer = core.ObserverFunc(func(ev core.Event) {
		if ev.Kind != core.EventPoint || ev.Experiment != e.ID || ev.Agg == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if err := senc.Encode(PointRecord(e.ID, *ev.Agg)); err != nil {
			t.Error(err)
		}
	})
	var rb strings.Builder
	renc := json.NewEncoder(&rb)
	for _, r := range Records(e, o) {
		if err := renc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return rb.String(), sb.String()
}

// TestChaosGolden pins the supervised output of the three sweep shapes
// under the seed-7 fault plan: the rendered table (with -why and the
// chaos bookkeeping), the buffered records and the streamed point
// records. A rate sweep resolves each point over its accepted,
// outlier-filtered repetitions; a per-cell sweep renders a quarantined
// cell from its last attempt's statistics.
func TestChaosGolden(t *testing.T) {
	for _, tc := range []struct {
		id                                        string
		reps                                      int
		attempts, quarantined, rejected, degraded int
	}{
		{"fig6.2-nosmp", 3, 273, 1, 20, 4},
		{"fig6.7", 1, 87, 1, 0, 5},
		{"ext-modern", 1, 99, 0, 0, 3},
	} {
		t.Run(tc.id, func(t *testing.T) {
			e, err := Find(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			o := Options{Packets: 2000, Reps: tc.reps, Chaos: 7, Why: true}
			records, stream := recordStreams(t, e, o)
			var attempts, quarantined, rejected, degraded int
			for _, line := range strings.Split(strings.TrimSpace(records), "\n") {
				var r Record
				if err := json.Unmarshal([]byte(line), &r); err != nil {
					t.Fatal(err)
				}
				attempts += r.Attempts
				quarantined += r.Quarantined
				rejected += r.Rejected
				if r.Degraded {
					degraded++
				}
			}
			if attempts != tc.attempts || quarantined != tc.quarantined ||
				rejected != tc.rejected || degraded != tc.degraded {
				t.Errorf("totals: %d attempts, %d quarantined, %d rejected, %d degraded; want %d, %d, %d, %d",
					attempts, quarantined, rejected, degraded,
					tc.attempts, tc.quarantined, tc.rejected, tc.degraded)
			}
			checkGolden(t, "chaos-"+tc.id+".txt", e.Run(o))
			checkGolden(t, "chaos-"+tc.id+".records.json", records)
			checkGolden(t, "chaos-"+tc.id+".stream.json", stream)
		})
	}
}

// TestPerCellGolden pins the plain (unsupervised) records of the
// per-cell sweeps, buffered and streamed: their points carry no chaos
// counters.
func TestPerCellGolden(t *testing.T) {
	for _, id := range []string{"fig6.7", "ext-modern"} {
		t.Run(id, func(t *testing.T) {
			e, err := Find(id)
			if err != nil {
				t.Fatal(err)
			}
			records, stream := recordStreams(t, e, Options{Packets: 2000})
			if strings.Contains(records+stream, `"attempts"`) {
				t.Error("plain records carry chaos counters")
			}
			checkGolden(t, "plain-"+id+".records.json", records)
			checkGolden(t, "plain-"+id+".stream.json", stream)
		})
	}
}
