package monitor

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// Paging bounds of /api/campaigns/{id}/cells.
const (
	DefaultCellPage = 500
	MaxCellPage     = 5000
)

// Server serves the monitoring HTTP API over one Hub and Registry.
type Server struct {
	hub *Hub
	reg *Registry
}

// NewServer wires a server over the bus and registry.
func NewServer(h *Hub, r *Registry) *Server {
	return &Server{hub: h, reg: r}
}

// Hub returns the server's event bus.
func (s *Server) Hub() *Hub { return s.hub }

// Registry returns the server's campaign registry.
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the monitoring service's route table:
//
//	GET /healthz                      liveness probe
//	GET /api/campaigns                known campaigns (live + journal)
//	GET /api/campaigns/{id}/cells     completed cells, paged JSON
//	GET /api/campaigns/{id}/stream    SSE: replay, then follow live
//	GET /metrics                      Prometheus text format
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /api/campaigns", s.handleCampaigns)
	mux.HandleFunc("GET /api/campaigns/{id}/cells", s.handleCells)
	mux.HandleFunc("GET /api/campaigns/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.reg.Campaigns())
}

// cellsResponse is the paged JSON envelope of /cells.
type cellsResponse struct {
	Campaign string     `json:"campaign"`
	Total    int        `json:"total"`
	Offset   int        `json:"offset"`
	Cells    []CellView `json:"cells"`
}

func (s *Server) handleCells(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	offset, err := queryInt(r, "offset", 0)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	limit, err := queryInt(r, "limit", DefaultCellPage)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	if limit > MaxCellPage {
		limit = MaxCellPage
	}
	cells, total, ok := s.reg.Cells(id, offset, limit)
	if !ok {
		http.Error(w, "unknown campaign", http.StatusNotFound)
		return
	}
	if cells == nil {
		cells = []CellView{}
	}
	// An offset past the end reads an empty page at the end.
	writeJSON(w, cellsResponse{Campaign: id, Total: total, Offset: min(offset, total), Cells: cells})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeJSONError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Error string `json:"error"`
	}{Error: err.Error()})
}

// queryInt parses a non-negative integer query parameter. A malformed
// or negative value is a client error, not a silent fallback to the
// default: callers answer it with HTTP 400.
func queryInt(r *http.Request, key string, def int) (int, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("query parameter %q: %q is not an integer", key, s)
	}
	if n < 0 {
		return 0, fmt.Errorf("query parameter %q: must not be negative, got %d", key, n)
	}
	return n, nil
}
