package faults

import (
	"repro/internal/capture"
	"repro/internal/mix"
	"repro/internal/pktgen"
	"repro/internal/sim"
)

// LossySource wraps a packet source as a degraded splitter leg: each frame
// is independently dropped with the configured probability, decided by a
// deterministic per-frame hash so the same (seed, train) loses the same
// frames on every replay. The dropped packet and byte counts are the
// numbers the supervisor books under the fault-splitter ledger cause.
type LossySource struct {
	src   capture.Source
	seed  uint64
	ratio float64

	idx       uint64
	Lost      int
	LostBytes uint64
	LastAt    sim.Time // arrival time of the last frame seen (kept or lost)
}

// NewLossySource wraps src with per-frame loss probability ratio.
func NewLossySource(src capture.Source, seed uint64, ratio float64) *LossySource {
	return &LossySource{src: src, seed: seed, ratio: ratio}
}

// Reset rewinds the leg, clearing the loss accounting.
func (s *LossySource) Reset() {
	s.src.Reset()
	s.idx, s.Lost, s.LostBytes, s.LastAt = 0, 0, 0, 0
}

// Next returns the next frame that survives the leg.
func (s *LossySource) Next() (pktgen.Packet, bool) {
	for {
		p, ok := s.src.Next()
		if !ok {
			return pktgen.Packet{}, false
		}
		s.LastAt = p.At
		i := s.idx
		s.idx++
		if mix.Unit(mix.Keys(s.seed, i)) < s.ratio {
			s.Lost++
			s.LostBytes += uint64(len(p.Data))
			continue
		}
		return p, true
	}
}

// TruncatedSource wraps a packet source as an underrunning or stalling
// generator: only the first Limit frames are emitted. The frames the
// generator owed but never sent are counted (by draining the tail on
// exhaustion) so a normalized repetition can book them under the
// fault-generator cause.
type TruncatedSource struct {
	src   capture.Source
	limit int

	n        int
	drained  bool
	Cut      int
	CutBytes uint64
	LastAt   sim.Time
}

// NewTruncatedSource emits only the first limit frames of src.
func NewTruncatedSource(src capture.Source, limit int) *TruncatedSource {
	if limit < 0 {
		limit = 0
	}
	return &TruncatedSource{src: src, limit: limit}
}

// Reset rewinds the train, clearing the shortfall accounting.
func (s *TruncatedSource) Reset() {
	s.src.Reset()
	s.n, s.drained, s.Cut, s.CutBytes, s.LastAt = 0, false, 0, 0, 0
}

// Next returns the next frame, or false once the truncation point is hit.
func (s *TruncatedSource) Next() (pktgen.Packet, bool) {
	if s.n >= s.limit {
		if !s.drained {
			s.drained = true
			for {
				p, ok := s.src.Next()
				if !ok {
					break
				}
				s.Cut++
				s.CutBytes += uint64(len(p.Data))
			}
		}
		return pktgen.Packet{}, false
	}
	p, ok := s.src.Next()
	if !ok {
		return pktgen.Packet{}, false
	}
	s.n++
	s.LastAt = p.At
	return p, true
}
