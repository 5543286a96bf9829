// Cell enumeration: computing an experiment's measurement-cell space
// without measuring anything. The dispatch protocol leases cells by
// their durable CellKey only — a capture.Config carries closures (BPF
// filters) and a Cell may carry a source wrap (selfsim's re-timed
// trains), neither of which is wire-safe — so both sides re-derive the
// key → cell mapping locally. The derivation is the experiment's own
// layout function, the one its Run and Series hand to core.Points, so
// there is no dry run: what is enumerated is what is measured. Cell
// layout is a pure function of the semantic Options fields, which is
// exactly what the campaign fingerprint hashes, so a fingerprint match
// guarantees the coordinator and every worker enumerate identical cells.
package experiments

import (
	"fmt"

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
// generator and disk benchmarks): they yield an empty set, always run
// locally and are never leased. Chaos campaigns cannot be enumerated:
// their fault hooks are process-local closures.
func EnumerateCells(id string, o Options) (*CellSet, error) {
	e, err := Find(id)
	if err != nil {
		return nil, err
	}
	o = o.withDefaults()
	if o.Chaos != 0 {
		return nil, fmt.Errorf("experiments: chaos campaigns cannot be enumerated for dispatch")
	}
	set := &CellSet{Experiment: id, index: map[core.CellKey]int{}}
	if e.layout != nil {
		l := e.layout(o)
		set.Cells, set.IDs = l.Cells, l.IDs
		for i := range l.Cells {
			set.index[core.KeyOf(id, l.Cells[i], l.IDs[i])] = i
		}
	}
	return set, nil
}
