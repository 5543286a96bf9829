// HTTP face of the dispatch protocol, mounted on the same mux as the
// monitoring API. Three verbs, all campaign-scoped:
//
//	POST /api/campaigns/{id}/lease      — request a batch of cells
//	POST /api/campaigns/{id}/complete   — report a lease's outcomes
//	POST /api/campaigns/{id}/heartbeat  — keep held leases alive
//
// plus GET /api/dispatch for worker discovery (campaign id and
// fingerprint). A lease request lists the leases its worker holds
// ("held"); the coordinator ends every other live lease of that worker,
// returning its cells to the queue. A lease request that finds nothing
// leasable is answered 204 at once if its worker still holds a live
// lease; otherwise it is held: the coordinator answers it as soon as
// cells become leasable (200 with the lease) or the campaign completes,
// and with 204 only after leaseHold without either, so a worker asks
// again at once. A complete or a heartbeat is answered 204. Refusals are
// typed by status: 400 for a malformed or oversized body (a bad "held"
// list included), 404 for another campaign's id, 409 for a missing or
// mismatched fingerprint (the worker's options hash differently — a
// worker bug or a misaligned flag set, never retryable), 403 for a
// quarantined worker, 410 to a lease request or a heartbeat once the
// campaign is complete, and 500 when the coordinator cannot record a
// grant or a completion.
package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/core"
)

// leaseRequest is a worker asking for cells. Held lists the leases the
// worker holds (absent means none); the coordinator ends every other live
// lease of the worker.
type leaseRequest struct {
	Worker      string   `json:"worker"`
	Fingerprint string   `json:"fingerprint"`
	Held        []uint64 `json:"held,omitempty"`
}

// completeRequest reports the outcome of a lease. Records carries the
// measured cells; a leased cell without one re-enters the dispatch queue
// once no other lease covers it.
type completeRequest struct {
	Worker      string   `json:"worker"`
	Fingerprint string   `json:"fingerprint"`
	Lease       uint64   `json:"lease"`
	Records     []Record `json:"records,omitempty"`
}

type heartbeatRequest struct {
	Worker string `json:"worker"`
}

// infoResponse answers worker discovery.
type infoResponse struct {
	Campaign    string `json:"campaign"`
	Fingerprint string `json:"fingerprint"`
	Done        bool   `json:"done"`
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Request body caps. Lease and heartbeat requests are tiny; completions
// carry the measured records of one lease batch and get headroom. A
// client that streams more than the cap is cut off with 400, not fed to
// the decoder forever.
const (
	maxSmallBody    = 4 << 10
	maxCompleteBody = 16 << 20
)

// validKey sanity-checks a worker-reported cell key. Keys are matched
// against the coordinator's own enumeration later (unknown keys are
// dropped there); this guards the obviously-garbage shapes a corrupted
// or malicious request could carry.
func validKey(k core.CellKey) string {
	switch {
	case k.Experiment == "" || len(k.Experiment) > 128:
		return "has a bad experiment name"
	case k.System == "" || len(k.System) > 128:
		return "has a bad system name"
	case k.Rep < 0 || k.Rep > 1<<20:
		return "has an out-of-range rep"
	default:
		return ""
	}
}

// decodeBody reads a request body of one JSON value into v, or answers
// 400. The body is read to its end and anything after the value but
// space is refused, so the cap holds for the whole body, not just for
// its first value. Reading to the end also lets the server watch the
// connection of a held lease request for the worker hanging up.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == nil {
			err = errors.New("more than one JSON value")
		} else if err == io.EOF {
			err = nil
		}
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
		return false
	}
	return true
}

// Register mounts the dispatch endpoints on mux. The campaign-scoped
// routes 404 for any campaign id other than the coordinator's own.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /api/dispatch", c.handleInfo)
	mux.HandleFunc("POST /api/campaigns/{id}/lease", c.campaignScoped(c.handleLease))
	mux.HandleFunc("POST /api/campaigns/{id}/complete", c.campaignScoped(c.handleComplete))
	mux.HandleFunc("POST /api/campaigns/{id}/heartbeat", c.campaignScoped(c.handleHeartbeat))
}

func (c *Coordinator) campaignScoped(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") != c.Campaign {
			writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown campaign"})
			return
		}
		h(w, r)
	}
}

func (c *Coordinator) handleInfo(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	done := c.finished
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, infoResponse{
		Campaign: c.Campaign, Fingerprint: c.Fingerprint, Done: done,
	})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeBody(w, r, maxSmallBody, &req) {
		return
	}
	if req.Worker == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "worker name required"})
		return
	}
	l, err := c.holdLease(r.Context(), req.Worker, req.Fingerprint, req.Held)
	switch {
	case err == nil && l == nil && r.Context().Err() != nil:
		// The worker hung up during the hold; nobody reads an answer.
	case err == nil && l == nil:
		w.WriteHeader(http.StatusNoContent)
	case err == nil:
		writeJSON(w, http.StatusOK, l)
	default:
		writeJSON(w, leaseStatus(err), errorBody{Error: err.Error()})
	}
}

func leaseStatus(err error) int {
	switch {
	case IsDone(err):
		return http.StatusGone
	case IsQuarantined(err):
		return http.StatusForbidden
	default:
		if _, ok := err.(*FingerprintError); ok {
			return http.StatusConflict
		}
		return http.StatusInternalServerError
	}
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !decodeBody(w, r, maxCompleteBody, &req) {
		return
	}
	if req.Worker == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "worker name required"})
		return
	}
	for _, rec := range req.Records {
		if bad := validKey(rec.Key); bad != "" {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "record " + bad})
			return
		}
	}
	if err := c.Complete(req.Worker, req.Fingerprint, req.Lease, req.Records); err != nil {
		if _, ok := err.(*FingerprintError); ok {
			writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeBody(w, r, maxSmallBody, &req) {
		return
	}
	if req.Worker == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "worker name required"})
		return
	}
	if err := c.Heartbeat(req.Worker); err != nil {
		writeJSON(w, leaseStatus(err), errorBody{Error: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
