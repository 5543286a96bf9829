package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// ported lists the experiments that once measured outside the cell engine
// (core.RunOnce and System runs in hand-written loops). Their tables in
// testdata/ported-<id>.txt were rendered by that code and are never
// regenerated: the cell layouts must reproduce them exactly.
var ported = []string{
	"ext-workers", "ext-10gbe", "ext-production", "ext-moderation",
	"abl-housekeeping", "abl-contention", "selfsim",
}

// TestPortedExperimentsMatchRecording renders each ported experiment
// serially and on two workers and compares both with the recording.
func TestPortedExperimentsMatchRecording(t *testing.T) {
	for _, id := range ported {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", "ported-"+id+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			e, err := Find(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{0, 2} {
				o := Options{Packets: 4000, Seed: 1, Rates: []float64{300, 900}, Parallelism: p}
				if got := e.Run(o); got != string(want) {
					t.Fatalf("Parallelism=%d:\n--- got ---\n%s--- want ---\n%s", p, got, want)
				}
			}
		})
	}
}

// textOnly are the experiments that measure no capture cells: the
// distribution plots and the generator and disk benchmarks.
var textOnly = map[string]bool{"fig4.1": true, "fig4.2": true, "fig4.3": true, "gen-rate": true, "fig6.13": true}

// TestEnumerateCellsEveryExperiment enumerates every experiment: the
// durable keys of one experiment are pairwise distinct (two cells under
// one key would overwrite each other in the journal and the lease index),
// and every experiment but the text-only ones has a series form and cells
// to lease.
func TestEnumerateCellsEveryExperiment(t *testing.T) {
	for _, e := range All() {
		set, err := EnumerateCells(e.ID, fast())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		seen := map[core.CellKey]int{}
		for i := range set.Cells {
			k := core.KeyOf(e.ID, set.Cells[i], set.IDs[i])
			if j, dup := seen[k]; dup {
				t.Errorf("%s: cells %d and %d share the key %+v", e.ID, j, i, k)
			}
			seen[k] = i
		}
		if e.Series != nil && set.Len() == 0 {
			t.Errorf("%s has a series form but enumerates no cells", e.ID)
		}
		if e.Series == nil && !textOnly[e.ID] {
			t.Errorf("%s has no series form", e.ID)
		}
	}
}

// TestEnumerateCellsCounts pins the cell counts of the ported experiments
// at the default options: each keeps its own axes and ignores -reps.
func TestEnumerateCellsCounts(t *testing.T) {
	want := map[string]int{
		"ext-workers": 76, "ext-10gbe": 16, "ext-production": 32, "ext-moderation": 5,
		"abl-housekeeping": 38, "abl-contention": 76, "selfsim": 6,
	}
	for _, id := range ported {
		for _, reps := range []int{1, 3} {
			set, err := EnumerateCells(id, Options{Reps: reps})
			if err != nil {
				t.Fatal(err)
			}
			if set.Len() != want[id] {
				t.Errorf("%s at %d reps: %d cells, want %d", id, reps, set.Len(), want[id])
			}
		}
	}
}
