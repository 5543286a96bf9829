// Observer hook: the cell engine's live event feed. Run and Points
// accept an optional Observer in their Options; when one is attached, the
// engine publishes typed events as the campaign unfolds — per-cell
// completions (with the cell's full statistics), deterministic per-point
// aggregates, and the supervisor's retry/quarantine decisions. The
// monitoring service (internal/monitor) fans these events out to HTTP
// subscribers; the `experiment -json` writer streams its NDJSON records
// from the same feed.
//
// The contract is strictly one-way and non-blocking: an Observer must
// never block (the monitor hub drops to bounded per-subscriber rings) and
// must not retain the Stats/Point/Outcome pointers beyond the call unless
// it copies them — the engine hands out private copies, so retaining is
// in fact safe, but mutating is not. Observation never changes a result:
// a sweep with an observer attached is byte-identical to one without.
package core

import (
	"sync"

	"repro/internal/capture"
)

// EventKind classifies an engine event.
type EventKind int

const (
	// EventCampaignStart / EventCampaignFinish bracket one driver
	// invocation (emitted by the CLI layer, not the engines).
	EventCampaignStart EventKind = iota
	EventCampaignFinish
	// EventExperimentStart / EventExperimentFinish bracket one experiment
	// within a campaign (emitted by the CLI layer).
	EventExperimentStart
	EventExperimentFinish
	// EventCell: one measurement cell reached its final, accepted outcome
	// (Stats set; Outcome set under fault supervision; Replayed when the
	// cell was served from the campaign journal instead of running).
	EventCell
	// EventPoint: one plotted point — a (system, x) aggregate over its
	// repetitions — is complete (Agg set). Points are emitted in the
	// canonical plotting layout order regardless of worker count, so a
	// consumer sees a deterministic record stream for any parallelism.
	EventPoint
	// EventRetry: a cell attempt failed validation (or the sniffer hung or
	// crashed) and will be retried; Detail carries the reason.
	EventRetry
	// EventQuarantine: a cell exhausted its retry budget without a valid
	// run — its final outcome (Outcome set, Quarantined) is as recorded.
	EventQuarantine
	// EventSnifferDead: the fault model drew a dead sniffer for a cell
	// attempt (fault supervision). A dead sniffer stays dead for the whole
	// point, so every attempt of its cells emits one and the cells end
	// quarantined.
	EventSnifferDead
	// EventCheckpoint: the campaign journal durably recorded a cell.
	EventCheckpoint
	// EventLease: the dispatch coordinator granted a lease of cells to a
	// worker (Worker set; Detail carries the lease id and cell count).
	EventLease
	// EventLeaseExpired: a lease's deadline passed without completion —
	// missed heartbeats or a dead worker — and its unfinished cells went
	// back to the dispatch queue (Worker set).
	EventLeaseExpired
	// EventChaos: the fault-injection harness (netchaos / faultfs) injected
	// a fault. Fault names the fault class, Worker the affected peer where
	// known, Detail the operation. Chaos events are observability only —
	// they never change a campaign's results.
	EventChaos
)

// String returns the wire name of the kind (used by the SSE stream and
// the metrics labels).
func (k EventKind) String() string {
	switch k {
	case EventCampaignStart:
		return "campaign-start"
	case EventCampaignFinish:
		return "campaign-finish"
	case EventExperimentStart:
		return "experiment-start"
	case EventExperimentFinish:
		return "experiment-finish"
	case EventCell:
		return "cell"
	case EventPoint:
		return "point"
	case EventRetry:
		return "retry"
	case EventQuarantine:
		return "quarantine"
	case EventSnifferDead:
		return "sniffer-dead"
	case EventCheckpoint:
		return "checkpoint"
	case EventLease:
		return "lease"
	case EventLeaseExpired:
		return "lease-expired"
	case EventChaos:
		return "chaos"
	default:
		return "unknown"
	}
}

// Event is one engine event. Only the fields meaningful for the Kind are
// set; the rest stay zero.
type Event struct {
	// Seq is the publication sequence number, assigned by the bus (zero
	// until published).
	Seq uint64
	// Kind classifies the event.
	Kind EventKind
	// Campaign identifies the driver invocation. The engines leave it
	// empty; the CLI layer and the monitor registry attribute engine
	// events to the running campaign.
	Campaign string
	// Experiment is the experiment id the event belongs to.
	Experiment string
	// System is the sniffer configuration name (cell-level events).
	System string
	// Worker is the dispatch worker the event is attributed to: the
	// lease holder on lease-level events, the worker that measured the
	// cell on dispatched EventCells. Empty for local runs.
	Worker string
	// Point is the durable point fingerprint (CellKey.Point).
	Point uint64
	// X is the plotted x value where the engine knows it (the data rate in
	// Mbit/s for rate sweeps; buffer size in kB for buffer sweeps); zero
	// when unknown.
	X float64
	// Rep is the repetition index (cell-level events).
	Rep int
	// Attempt is the attempt index of a retry event.
	Attempt int
	// Replayed marks a cell served from the campaign journal.
	Replayed bool
	// Detail is the human-readable reason/summary (retry cause, checkpoint
	// note, campaign fingerprint on campaign-start).
	Detail string
	// Fault is the injected fault class of an EventChaos ("latency",
	// "partition", "write-enospc", …). Empty on every other kind.
	Fault string
	// Stats is the cell's final statistics (EventCell, EventQuarantine).
	// A private copy — safe to retain, not to mutate.
	Stats *capture.Stats
	// Agg is the completed point aggregate (EventPoint). A private copy.
	Agg *Point
	// Outcome is the supervised outcome of the cell (EventCell and
	// EventQuarantine under a fault plan). A private copy.
	Outcome *CellOutcome
}

// Key returns the durable key of the cell a cell-level event reports.
func (ev Event) Key() CellKey {
	return CellKey{Experiment: ev.Experiment, Point: ev.Point, System: ev.System, Rep: ev.Rep}
}

// Observer receives engine events. Implementations must be safe for
// concurrent use (workers publish cell events in parallel) and must not
// block.
type Observer interface {
	Observe(ev Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe calls f(ev).
func (f ObserverFunc) Observe(ev Event) { f(ev) }

// MultiObserver fans one event out to several observers in order, nils
// skipped. It returns nil when every observer is nil, so the engine's
// "no observer attached" fast path stays intact.
func MultiObserver(obs ...Observer) Observer {
	live := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return ObserverFunc(func(ev Event) {
		for _, o := range live {
			o.Observe(ev)
		}
	})
}

// pointObserver wraps obs for the layout of a Points call: cell events
// are forwarded as-is, and once every cell of a point is final, the
// point resolved by point is published as an EventPoint with its cells'
// Point key and X — in layout order regardless of worker scheduling,
// via head-of-line sequencing.
func pointObserver(obs Observer, experiment string, l Layout, point func(outs []CellOutcome, p int) Point) Observer {
	idxOf := make(map[CellKey]int, len(l.Cells))
	for i := range l.Cells {
		idxOf[KeyOf(experiment, l.Cells[i], l.IDs[i])] = i
	}
	outs := make([]CellOutcome, len(l.Cells))
	seq := newPointSequencer(len(l.Cells)/l.Reps, l.Reps, func(p int) {
		pt, id := point(outs, p), l.IDs[l.cell(p, 0)]
		obs.Observe(Event{
			Kind: EventPoint, Experiment: experiment, System: pt.System,
			Point: id.Point, X: id.X, Agg: &pt,
		})
	})
	return ObserverFunc(func(ev Event) {
		obs.Observe(ev)
		if ev.Kind != EventCell && ev.Kind != EventQuarantine {
			return
		}
		i, ok := idxOf[ev.Key()]
		if !ok {
			return
		}
		if ev.Outcome != nil {
			outs[i] = *ev.Outcome
		} else if ev.Stats != nil {
			outs[i].Stats = *ev.Stats
		}
		seq.done(l.point(i))
	})
}

// pointSequencer turns unordered per-cell completions into deterministic
// per-point emissions: a point is emitted when all of its cells are done
// AND every earlier point (in canonical layout order) has been emitted —
// head-of-line sequencing. Workers finishing out of order only ever delay
// emission, never reorder it, so the EventPoint stream is byte-identical
// for any worker count. emit runs under the sequencer lock: emissions are
// serialized and strictly ordered.
type pointSequencer struct {
	mu        sync.Mutex
	remaining []int
	ready     []bool
	next      int
	emit      func(p int)
}

// newPointSequencer sets up npoints points of cellsPerPoint cells each.
func newPointSequencer(npoints, cellsPerPoint int, emit func(p int)) *pointSequencer {
	s := &pointSequencer{
		remaining: make([]int, npoints),
		ready:     make([]bool, npoints),
		emit:      emit,
	}
	for i := range s.remaining {
		s.remaining[i] = cellsPerPoint
	}
	return s
}

// done marks one cell of point p complete. Safe for concurrent use.
func (s *pointSequencer) done(p int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.remaining[p]--
	if s.remaining[p] > 0 {
		return
	}
	s.ready[p] = true
	for s.next < len(s.ready) && s.ready[s.next] {
		s.emit(s.next)
		s.next++
	}
}
