package experiments

import (
	"repro/internal/capture"
	"repro/internal/core"
)

// Record is one machine-readable measurement point, the unit of the
// `experiment -json` output (one NDJSON object per line).
type Record struct {
	Experiment string  `json:"experiment"`
	System     string  `json:"system"`
	X          float64 `json:"x"` // data rate Mbit/s, buffer kB, ...
	RatePct    float64 `json:"ratePct"`
	RateMinPct float64 `json:"rateMinPct"`
	RateMaxPct float64 `json:"rateMaxPct"`
	CPUPct     float64 `json:"cpuPct"`
	Generated  uint64  `json:"generated"`
	Dropped    uint64  `json:"dropped"`
	// Drops is the per-cause ledger of the point, summed over repetitions.
	Drops capture.Ledger `json:"drops"`
	// Truncated counts repetitions that hit the simulation safety cap.
	Truncated int `json:"truncated,omitempty"`

	// Chaos bookkeeping (only set when the sweep ran under -chaos):
	// Attempts is the number of cycle attempts spent on the point,
	// Quarantined / Rejected count repetitions lost to the retry budget
	// and the outlier rejection, Degraded marks impaired accepted data,
	// and Faults is the compact fault log.
	Attempts    int    `json:"attempts,omitempty"`
	Quarantined int    `json:"quarantined,omitempty"`
	Rejected    int    `json:"rejected,omitempty"`
	Degraded    bool   `json:"degraded,omitempty"`
	Faults      string `json:"faults,omitempty"`
}

// PointRecord converts one aggregated measurement point into the NDJSON
// record shape. The buffered Records path and the streaming -json writer
// (driven by EventPoint observer events) both build their rows here, so
// the two emit byte-identical records.
func PointRecord(experiment string, p core.Point) Record {
	total, _ := p.Drops.Total()
	return Record{
		Experiment:  experiment,
		System:      p.System,
		X:           p.X,
		RatePct:     p.Rate,
		RateMinPct:  p.RateMin,
		RateMaxPct:  p.RateMax,
		CPUPct:      p.CPU,
		Generated:   p.Generated,
		Dropped:     total,
		Drops:       p.Drops,
		Truncated:   p.Truncated,
		Attempts:    p.Attempts,
		Quarantined: p.Quarantined,
		Rejected:    p.Rejected,
		Degraded:    p.Degraded,
		Faults:      p.FaultLog,
	}
}

// Records flattens an experiment's series into JSON-ready rows. It returns
// nil for experiments without a structured series form — the distribution
// plots and the generator and disk benchmarks, which measure no capture
// cells; `experiment -json` skips those.
func Records(e Experiment, o Options) []Record {
	if e.Series == nil {
		return nil
	}
	var recs []Record
	for _, s := range e.Series(o) {
		for _, p := range s.Points {
			r := PointRecord(e.ID, p)
			r.System = s.System
			recs = append(recs, r)
		}
	}
	return recs
}
