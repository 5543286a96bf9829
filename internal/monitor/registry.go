package monitor

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/journal"
)

// CellView is the JSON shape of one completed measurement cell, as
// served by /api/campaigns/{id}/cells and carried in the SSE stream.
type CellView struct {
	Seq         uint64         `json:"seq,omitempty"`
	Experiment  string         `json:"experiment"`
	System      string         `json:"system"`
	Point       uint64         `json:"point"`
	X           float64        `json:"x,omitempty"`
	Rep         int            `json:"rep"`
	Replayed    bool           `json:"replayed,omitempty"`
	Quarantined bool           `json:"quarantined,omitempty"`
	Degraded    bool           `json:"degraded,omitempty"`
	Attempts    int            `json:"attempts,omitempty"`
	RatePct     float64        `json:"ratePct"`
	CPUPct      float64        `json:"cpuPct"`
	Generated   uint64         `json:"generated"`
	Dropped     uint64         `json:"dropped"`
	Drops       capture.Ledger `json:"drops"`
}

// CampaignInfo is one row of /api/campaigns.
type CampaignInfo struct {
	ID          string   `json:"id"`
	Fingerprint string   `json:"fingerprint,omitempty"`
	Live        bool     `json:"live"`
	Finished    bool     `json:"finished,omitempty"`
	Cells       int      `json:"cells"`
	Points      int      `json:"points,omitempty"`
	Retries     int      `json:"retries,omitempty"`
	Quarantined int      `json:"quarantined,omitempty"`
	Experiments []string `json:"experiments,omitempty"`
	Source      string   `json:"source"` // "live" or "journal"
}

// Counters are the process-wide event tallies behind /metrics.
type Counters struct {
	Cells         uint64
	Replayed      uint64
	Retries       uint64
	Quarantined   uint64
	Points        uint64
	SnifferDead   uint64
	Checkpoints   uint64
	Leases        uint64
	LeasesExpired uint64
	DropsByCause  [capture.NumCauses]uint64
	// Chaos tallies injected faults by class label ("latency",
	// "write-enospc", …), fed by EventChaos. Nil until the first
	// injection.
	Chaos map[string]uint64
}

// campaignState is the in-memory record of a campaign observed live on
// the bus.
type campaignState struct {
	id          string
	fingerprint string
	finished    bool
	experiments []string
	cells       []CellView
	points      int
	retries     int
	quarantined int
	events      []core.Event // full feed, for SSE replay
}

// journalCache caches the decoded cells of one journal file, keyed by
// file size: a grown journal is re-read, an unchanged one served from
// memory.
type journalCache struct {
	size        int64
	fingerprint string
	cells       []CellView
}

// Registry tracks live campaigns (fed by the Hub) and completed ones
// discovered from journal directories, and serves both to the HTTP
// layer.
type Registry struct {
	mu        sync.Mutex
	campaigns map[string]*campaignState
	order     []string          // campaign ids, first-seen order
	current   string            // id engine events are attributed to
	dirs      map[string]string // campaign id → journal file path
	dirOrder  []string
	cache     map[string]*journalCache
	counters  Counters
	workers   map[string]uint64 // dispatch worker → cells completed
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		campaigns: make(map[string]*campaignState),
		dirs:      make(map[string]string),
		cache:     make(map[string]*journalCache),
	}
}

// Attach registers the registry as a synchronous applier on the hub:
// every published event updates the registry before any subscriber sees
// it, so an SSE snapshot taken under the hub lock is exact.
func (r *Registry) Attach(h *Hub) {
	h.Apply(r.apply)
}

// AddJournalDir registers a journal directory for read-only discovery
// under the campaign id (conventionally the directory's base name). The
// journal file need not exist yet.
func (r *Registry) AddJournalDir(id, dir string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.dirs[id]; !ok {
		r.dirOrder = append(r.dirOrder, id)
	}
	r.dirs[id] = filepath.Join(dir, experiments.JournalFile)
}

// JournalPath returns the registered journal file path of a campaign.
func (r *Registry) JournalPath(id string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.dirs[id]
	return p, ok
}

// apply folds one bus event into the registry. Runs under the hub lock.
func (r *Registry) apply(ev core.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()

	switch ev.Kind {
	case core.EventCell:
		r.counters.Cells++
		if ev.Replayed {
			r.counters.Replayed++
		}
		if ev.Stats != nil {
			for c := capture.Cause(0); c < capture.NumCauses; c++ {
				r.counters.DropsByCause[c] += ev.Stats.Ledger.Drops[c].Packets
			}
		}
	case core.EventRetry:
		r.counters.Retries++
	case core.EventQuarantine:
		r.counters.Quarantined++
	case core.EventPoint:
		r.counters.Points++
	case core.EventSnifferDead:
		r.counters.SnifferDead++
	case core.EventCheckpoint:
		r.counters.Checkpoints++
	case core.EventLease:
		r.counters.Leases++
	case core.EventLeaseExpired:
		r.counters.LeasesExpired++
	case core.EventChaos:
		if r.counters.Chaos == nil {
			r.counters.Chaos = make(map[string]uint64)
		}
		fault := ev.Fault
		if fault == "" {
			fault = "unknown"
		}
		r.counters.Chaos[fault]++
	}
	if ev.Kind == core.EventCell && ev.Worker != "" {
		if r.workers == nil {
			r.workers = make(map[string]uint64)
		}
		r.workers[ev.Worker]++
	}

	id := ev.Campaign
	if id == "" {
		id = r.current
	}
	if id == "" {
		id = "live"
	}
	st := r.campaigns[id]
	if st == nil {
		st = &campaignState{id: id}
		r.campaigns[id] = st
		r.order = append(r.order, id)
	}
	st.events = append(st.events, ev)

	switch ev.Kind {
	case core.EventCampaignStart:
		r.current = id
		st.fingerprint = ev.Detail
		st.finished = false
	case core.EventCampaignFinish:
		st.finished = true
	case core.EventExperimentStart:
		st.experiments = append(st.experiments, ev.Experiment)
	case core.EventCell, core.EventQuarantine:
		st.cells = append(st.cells, liveCellView(ev))
		if ev.Kind == core.EventQuarantine {
			st.quarantined++
		}
	case core.EventRetry:
		st.retries++
	case core.EventPoint:
		st.points++
	}
}

// liveCellView renders a cell-level bus event as a CellView.
func liveCellView(ev core.Event) CellView {
	v := CellView{
		Seq: ev.Seq, Experiment: ev.Experiment, System: ev.System,
		Point: ev.Point, X: ev.X, Rep: ev.Rep, Replayed: ev.Replayed,
		Quarantined: ev.Kind == core.EventQuarantine,
	}
	if out := ev.Outcome; out != nil {
		v.Degraded = out.Degraded
		v.Attempts = out.Attempts
		v.Quarantined = v.Quarantined || out.Quarantined
	}
	if st := ev.Stats; st != nil {
		v.RatePct = st.CaptureRate()
		v.CPUPct = st.CPUUsage()
		v.Generated = st.Generated
		v.Dropped, _ = st.Ledger.Total()
		v.Drops = st.Ledger
	}
	return v
}

// journalCellView renders one decoded journal cell record as a
// CellView. The plotted x is not recoverable from the durable point
// fingerprint, so X stays zero.
func journalCellView(k core.CellKey, out core.CellOutcome) CellView {
	total, _ := out.Stats.Ledger.Total()
	return CellView{
		Experiment: k.Experiment, System: k.System, Point: k.Point,
		Rep: k.Rep, Quarantined: out.Quarantined, Degraded: out.Degraded,
		Attempts: out.Attempts, RatePct: out.Stats.CaptureRate(),
		CPUPct: out.Stats.CPUUsage(), Generated: out.Stats.Generated,
		Dropped: total, Drops: out.Stats.Ledger,
	}
}

// refreshJournal returns the decoded cells of the journal at path,
// re-reading only when the file grew or shrank since the cached copy.
// Must be called with r.mu held.
func (r *Registry) refreshJournal(path string) (*journalCache, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if c, ok := r.cache[path]; ok && c.size == fi.Size() {
		return c, nil
	}
	hdr, payloads, err := journal.ReadAll(path)
	if err != nil {
		return nil, err
	}
	c := &journalCache{size: fi.Size(), fingerprint: hdr.Fingerprint}
	for _, p := range payloads {
		k, out, err := experiments.DecodeCellRecord(p)
		if err != nil {
			return nil, fmt.Errorf("monitor: corrupt cell record in %s: %w", path, err)
		}
		c.cells = append(c.cells, journalCellView(k, out))
	}
	r.cache[path] = c
	return c, nil
}

// Campaigns lists every known campaign: live ones observed on the bus
// first (first-seen order), then journal-registered ones not also live.
func (r *Registry) Campaigns() []CampaignInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []CampaignInfo
	for _, id := range r.order {
		st := r.campaigns[id]
		info := CampaignInfo{
			ID: id, Fingerprint: st.fingerprint, Live: !st.finished,
			Finished: st.finished, Cells: len(st.cells), Points: st.points,
			Retries: st.retries, Quarantined: st.quarantined,
			Experiments: append([]string(nil), st.experiments...),
			Source:      "live",
		}
		// A live campaign recording to a registered journal keeps the
		// live view; the journal is its durable shadow.
		out = append(out, info)
	}
	ids := append([]string(nil), r.dirOrder...)
	sort.Strings(ids)
	for _, id := range ids {
		if _, live := r.campaigns[id]; live {
			continue
		}
		info := CampaignInfo{ID: id, Source: "journal"}
		if c, err := r.refreshJournal(r.dirs[id]); err == nil {
			info.Fingerprint = c.fingerprint
			info.Cells = len(c.cells)
			for _, v := range c.cells {
				if v.Quarantined {
					info.Quarantined++
				}
			}
		}
		out = append(out, info)
	}
	if out == nil {
		out = []CampaignInfo{}
	}
	return out
}

// Cells returns one page of at most limit of a campaign's completed
// cells and the total count; ok is false for an unknown campaign id.
func (r *Registry) Cells(id string, offset, limit int) (cells []CellView, total int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var all []CellView
	if st, live := r.campaigns[id]; live {
		all = st.cells
	} else if path, reg := r.dirs[id]; reg {
		c, err := r.refreshJournal(path)
		if err != nil {
			return []CellView{}, 0, true // registered but empty/unreadable yet
		}
		all = c.cells
	} else {
		return nil, 0, false
	}
	total = len(all)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total {
		end = total
	}
	page := make([]CellView, end-offset)
	copy(page, all[offset:end])
	return page, total, true
}

// Known reports whether the campaign id is live on the bus or
// registered as a journal directory.
func (r *Registry) Known(id string) (live, registered bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, live = r.campaigns[id]
	_, registered = r.dirs[id]
	return live, registered
}

// Snapshot copies a live campaign's full event history. Safe to call
// from a Hub.SubscribeWith snap callback: the hub lock is already held,
// so the snapshot is exact with respect to the subscription point.
func (r *Registry) Snapshot(id string) ([]core.Event, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.campaigns[id]
	if !ok {
		return nil, false
	}
	return append([]core.Event(nil), st.events...), true
}

// Counters returns a copy of the process-wide event tallies. The Chaos
// map is deep-copied: the struct copy alone would alias the registry's
// live map.
func (r *Registry) Counters() Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters
	if r.counters.Chaos != nil {
		c.Chaos = make(map[string]uint64, len(r.counters.Chaos))
		for k, v := range r.counters.Chaos {
			c.Chaos[k] = v
		}
	}
	return c
}

// WorkerCells returns the cells completed per dispatch worker, as
// observed on the bus (EventCell with a worker attribution).
func (r *Registry) WorkerCells() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.workers))
	for k, v := range r.workers {
		out[k] = v
	}
	return out
}
