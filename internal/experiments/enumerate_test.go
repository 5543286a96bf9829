package experiments

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/capture"
	"repro/internal/core"
)

// recordingExecutor records the cells core.Run hands it, in order, and
// completes none of them: what a dispatched campaign leases.
type recordingExecutor struct {
	cells []core.Cell
	ids   []core.CellID
	keys  []core.CellKey
}

func (c *recordingExecutor) ExecuteCells(_ context.Context, experiment string, cells []core.Cell, ids []core.CellID, _ func(int, *capture.Stats, string) error) []error {
	for i := range cells {
		c.cells = append(c.cells, cells[i])
		c.ids = append(c.ids, ids[i])
		c.keys = append(c.keys, core.KeyOf(experiment, cells[i], ids[i]))
	}
	return make([]error, len(cells))
}

// TestEnumerateCellsMatchesDispatch: for every experiment with a series
// form, the cells an executor receives from Series are EnumerateCells'
// entries, in order — keys, ids, workloads, configs and source wraps. A
// worker resolves its leases against its own enumeration, so this is the
// guarantee that it measures exactly what the coordinator dispatches.
func TestEnumerateCellsMatchesDispatch(t *testing.T) {
	for _, o := range []Options{{}, {Reps: 3}, {Policy: "uniform:4"}, {Rings: []int{1, 2}}} {
		for _, e := range All() {
			if e.Series == nil {
				continue
			}
			x := &recordingExecutor{}
			ox := o
			ox.Executor = x
			e.Series(ox)
			set, err := EnumerateCells(e.ID, o)
			if err != nil {
				t.Fatalf("%s %+v: %v", e.ID, o, err)
			}
			if len(x.cells) != set.Len() || len(x.cells) == 0 {
				t.Fatalf("%s %+v: dispatched %d cells, enumerated %d", e.ID, o, len(x.cells), set.Len())
			}
			for i, c := range set.Cells {
				d := x.cells[i]
				k := core.KeyOf(e.ID, c, set.IDs[i])
				if j, ok := set.Find(x.keys[i]); !ok || j != i || k != x.keys[i] || set.IDs[i] != x.ids[i] ||
					c.W != d.W || !reflect.DeepEqual(c.Cfg, d.Cfg) || (c.Wrap == nil) != (d.Wrap == nil) {
					t.Fatalf("%s %+v: cell %d enumerated as %+v %+v, dispatched as %+v %+v",
						e.ID, o, i, k, c.W, x.keys[i], d.W)
				}
			}
		}
	}
}

// TestPointStreamFollowsLayout: both point rules publish through one
// point stream. Rate and per-cell sweeps alike, serial and on two
// workers, clean and under the seed-7 fault plan, publish one EventPoint
// per point in layout order (x-major, system-minor); each equals the
// point Series returns and carries the Point key and X of its cells.
func TestPointStreamFollowsLayout(t *testing.T) {
	for _, tc := range []struct {
		id   string
		reps int
	}{
		{"fig6.2-nosmp", 2}, {"fig6.4-nosmp", 1}, {"fig6.7", 1}, {"ext-production", 1},
		{"ext-moderation", 1}, {"selfsim", 1}, {"ext-modern", 1},
	} {
		e, err := Find(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		for _, chaos := range []uint64{0, 7} {
			for _, par := range []int{0, 2} {
				t.Run(fmt.Sprintf("%s/chaos=%d/parallel=%d", tc.id, chaos, par), func(t *testing.T) {
					o := Options{Packets: 1500, Reps: tc.reps, Rates: []float64{300, 900},
						Parallelism: par, Chaos: chaos}
					var mu sync.Mutex
					var stream []core.Event
					o.Observer = core.ObserverFunc(func(ev core.Event) {
						if ev.Kind == core.EventPoint {
							mu.Lock()
							stream = append(stream, ev)
							mu.Unlock()
						}
					})
					series := e.Series(o)
					l := e.layout(o.withDefaults())
					if n := len(l.Cells) / l.Reps; len(stream) != n || n == 0 {
						t.Fatalf("%d point events for %d points", len(stream), n)
					}
					for p, ev := range stream {
						s := series[p%l.Systems]
						if ev.Experiment != tc.id || ev.System != s.System || *ev.Agg != s.Points[p/l.Systems] {
							t.Fatalf("point event %d is %s %+v, want %s %+v", p, ev.System, *ev.Agg, s.System, s.Points[p/l.Systems])
						}
						for rep := 0; rep < l.Reps; rep++ {
							id := l.IDs[(p/l.Systems*l.Reps+rep)*l.Systems+p%l.Systems]
							if ev.Point != id.Point || ev.X != id.X {
								t.Fatalf("point event %d carries point %d at x %g; its rep-%d cell has %d at %g",
									p, ev.Point, ev.X, rep, id.Point, id.X)
							}
						}
					}
				})
			}
		}
	}
}
