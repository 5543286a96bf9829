// SSE streaming: /api/campaigns/{id}/stream replays what already
// happened, then follows live — exactly once, in order.
//
// A campaign live on the bus is served from the registry's event
// history: the snapshot and the subscription are taken atomically under
// the hub lock (Hub.SubscribeWith), so the replayed history and the
// followed feed meet at a seam with no gap and no overlap. A campaign
// known only as a journal directory — typically written by another
// process — is served by tailing its write-ahead log with the read-only
// journal.Reader: frames already durable are replayed, then the tail is
// polled as the writer appends.
package monitor

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/journal"
)

// Stream timing constants.
const (
	// journalPoll is the tail-polling cadence of journal-backed streams.
	journalPoll = 150 * time.Millisecond
	// keepalive is the SSE comment heartbeat period.
	keepalive = 15 * time.Second
)

// wireEvent is the SSE `data:` payload schema.
type wireEvent struct {
	Seq         uint64  `json:"seq,omitempty"`
	Kind        string  `json:"kind"`
	Campaign    string  `json:"campaign,omitempty"`
	Experiment  string  `json:"experiment,omitempty"`
	System      string  `json:"system,omitempty"`
	Point       uint64  `json:"point,omitempty"`
	X           float64 `json:"x,omitempty"`
	Rep         int     `json:"rep,omitempty"`
	Worker      string  `json:"worker,omitempty"`
	Attempt     int     `json:"attempt,omitempty"`
	Replayed    bool    `json:"replayed,omitempty"`
	Quarantined bool    `json:"quarantined,omitempty"`
	Degraded    bool    `json:"degraded,omitempty"`
	Detail      string  `json:"detail,omitempty"`
	Fault       string  `json:"fault,omitempty"`
	RatePct     float64 `json:"ratePct,omitempty"`
	CPUPct      float64 `json:"cpuPct,omitempty"`
	Generated   uint64  `json:"generated,omitempty"`
	Dropped     uint64  `json:"dropped,omitempty"`
}

// toWire renders a bus event in the SSE schema.
func toWire(ev core.Event) wireEvent {
	we := wireEvent{
		Seq: ev.Seq, Kind: ev.Kind.String(), Campaign: ev.Campaign,
		Experiment: ev.Experiment, System: ev.System, Point: ev.Point,
		X: ev.X, Rep: ev.Rep, Worker: ev.Worker, Attempt: ev.Attempt,
		Replayed: ev.Replayed, Detail: ev.Detail, Fault: ev.Fault,
	}
	if ev.Kind == core.EventQuarantine {
		we.Quarantined = true
	}
	if out := ev.Outcome; out != nil {
		we.Quarantined = we.Quarantined || out.Quarantined
		we.Degraded = out.Degraded
	}
	switch {
	case ev.Stats != nil:
		we.RatePct = ev.Stats.CaptureRate()
		we.CPUPct = ev.Stats.CPUUsage()
		we.Generated = ev.Stats.Generated
		we.Dropped, _ = ev.Stats.Ledger.Total()
	case ev.Agg != nil:
		we.RatePct = ev.Agg.Rate
		we.CPUPct = ev.Agg.CPU
		we.Generated = ev.Agg.Generated
		we.Dropped, _ = ev.Agg.Drops.Total()
		we.Degraded = we.Degraded || ev.Agg.Degraded
		if ev.Agg.Quarantined > 0 {
			we.Quarantined = true
		}
	}
	return we
}

// sseWriter frames SSE messages and flushes after every write: a
// streaming endpoint that buffers is a broken streaming endpoint.
type sseWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func newSSEWriter(w http.ResponseWriter) (*sseWriter, bool) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	return &sseWriter{w: w, f: f}, true
}

func (s *sseWriter) event(we wireEvent) error {
	data, err := json.Marshal(we)
	if err != nil {
		return err
	}
	if we.Seq != 0 {
		fmt.Fprintf(s.w, "id: %d\n", we.Seq)
	}
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", we.Kind, data); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

func (s *sseWriter) comment(msg string) error {
	if _, err := fmt.Fprintf(s.w, ": %s\n\n", msg); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	live, registered := s.reg.Known(id)
	if !live && !registered {
		http.Error(w, "unknown campaign", http.StatusNotFound)
		return
	}
	out, ok := newSSEWriter(w)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	if live {
		s.streamLive(r, out, id)
		return
	}
	s.streamJournal(r, out, id)
}

// streamLive replays the campaign's event history and follows the bus.
func (s *Server) streamLive(r *http.Request, out *sseWriter, id string) {
	var history []core.Event
	sub := s.hub.SubscribeWith("sse:"+id, 0, func(lastSeq uint64) {
		history, _ = s.reg.Snapshot(id)
	})
	defer s.hub.Unsubscribe(sub)

	for _, ev := range history {
		if err := out.event(toWire(ev)); err != nil {
			return
		}
	}
	beat := time.NewTicker(keepalive)
	defer beat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-beat.C:
			if err := out.comment("keepalive"); err != nil {
				return
			}
		case <-sub.Notify():
			for _, ev := range sub.Events() {
				// The bus carries every campaign; stream only this one
				// (engine events carry no campaign id — they belong to
				// the currently running campaign).
				if ev.Campaign != "" && ev.Campaign != id {
					continue
				}
				if err := out.event(toWire(ev)); err != nil {
					return
				}
				if ev.Kind == core.EventCampaignFinish {
					return
				}
			}
		}
	}
}

// streamJournal replays the durable frames of a journal-registered
// campaign and then tails the file as its writer (usually another
// process) appends. A journal that does not exist yet is waited for.
func (s *Server) streamJournal(r *http.Request, out *sseWriter, id string) {
	path, ok := s.reg.JournalPath(id)
	if !ok {
		return
	}
	ctx := r.Context()
	var jr *journal.Reader
	defer func() {
		if jr != nil {
			jr.Close()
		}
	}()
	seq := uint64(0)
	lastBeat := time.Now()
	sawHeader := false
	for ctx.Err() == nil {
		if jr == nil {
			var err error
			if jr, err = journal.OpenReader(path); err != nil {
				if !os.IsNotExist(err) {
					out.comment("error: " + err.Error())
					return
				}
				jr = nil
			}
		}
		progressed := false
		for jr != nil {
			payload, ok, err := jr.Next()
			if err != nil {
				if errors.Is(err, journal.ErrCorrupt) {
					out.comment("error: " + err.Error())
				}
				return
			}
			if !ok {
				break
			}
			progressed = true
			seq++
			if !sawHeader {
				sawHeader = true
				hdr, err := journal.ParseHeader(payload)
				if err != nil {
					out.comment("error: " + err.Error())
					return
				}
				we := wireEvent{Seq: seq, Kind: core.EventCampaignStart.String(),
					Campaign: id, Detail: hdr.Fingerprint}
				if out.event(we) != nil {
					return
				}
				continue
			}
			k, cellOut, err := experiments.DecodeCellRecord(payload)
			if err != nil {
				out.comment("error: " + err.Error())
				return
			}
			ev := core.Event{Kind: core.EventCell, Campaign: id, Seq: seq,
				Experiment: k.Experiment, System: k.System, Point: k.Point,
				Rep: k.Rep}
			if cellOut.Quarantined {
				ev.Kind = core.EventQuarantine
			}
			st := cellOut.Stats
			o := cellOut
			ev.Stats, ev.Outcome = &st, &o
			if out.event(toWire(ev)) != nil {
				return
			}
		}
		if !progressed {
			if time.Since(lastBeat) >= keepalive {
				lastBeat = time.Now()
				if out.comment("keepalive") != nil {
					return
				}
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(journalPoll):
			}
		}
	}
}
