// Cell enumeration: computing an experiment's measurement-cell space
// without measuring anything. The dispatch protocol leases cells by
// their durable CellKey only — a capture.Config carries closures (BPF
// filters) and a Cell may carry a source wrap (selfsim's re-timed
// trains), neither of which is wire-safe — so both sides re-derive the
// key → cell mapping locally. The derivation is the experiment code
// itself: its series form is run with a capturing executor that records
// the cells core.Run would have dispatched and returns without running
// any. Cell layout is a pure function of the semantic Options
// fields, which is exactly what the campaign fingerprint hashes, so a
// fingerprint match guarantees the coordinator and every worker
// enumerate identical cells.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/capture"
	"repro/internal/core"
)

// CellSet is the enumerated cell space of one experiment: the exact
// cells and ids core.Run would run, in engine layout order,
// with a durable-key index for lease resolution.
type CellSet struct {
	Experiment string
	Cells      []core.Cell
	IDs        []core.CellID
	index      map[core.CellKey]int
}

// Find resolves a leased cell key to its index in Cells/IDs.
func (s *CellSet) Find(k core.CellKey) (int, bool) {
	i, ok := s.index[k]
	return i, ok
}

// Len reports the number of enumerated cells.
func (s *CellSet) Len() int { return len(s.Cells) }

// EnumerateCells computes the cell space of experiment id under o
// without running a single measurement. Experiments without a series
// form measure no capture cells (the distribution plots and the
// generator and disk benchmarks): they yield an empty set without
// running, always run locally and are never leased. Chaos campaigns
// cannot be enumerated: their fault hooks are process-local closures.
func EnumerateCells(id string, o Options) (*CellSet, error) {
	e, err := Find(id)
	if err != nil {
		return nil, err
	}
	o = o.withDefaults()
	if o.Chaos != 0 {
		return nil, fmt.Errorf("experiments: chaos campaigns cannot be enumerated for dispatch")
	}
	cap := &capturingExecutor{set: &CellSet{
		Experiment: id,
		index:      map[core.CellKey]int{},
	}}
	// Strip every runtime knob: enumeration must see the engine's cell
	// layout, nothing else — no journal replay filtering, no events, no
	// cancellation, and certainly not a real executor.
	o.Ctx, o.Journal, o.Observer = nil, nil, nil
	o.Executor = cap
	if e.Series != nil {
		e.Series(o)
	}
	return cap.set, nil
}

// capturingExecutor records the cells core.Run hands it and completes
// none of them: the engine's aggregation sees zero statistics (the series
// it returns are discarded) and its journal hook never fires.
type capturingExecutor struct{ set *CellSet }

func (c *capturingExecutor) ExecuteCells(ctx context.Context, experiment string, cells []core.Cell, ids []core.CellID, done func(int, *capture.Stats, string) error) []error {
	for i := range cells {
		c.set.index[core.KeyOf(experiment, cells[i], ids[i])] = len(c.set.Cells)
		c.set.Cells = append(c.set.Cells, cells[i])
		c.set.IDs = append(c.set.IDs, ids[i])
	}
	return make([]error, len(cells))
}
