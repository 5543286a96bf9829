package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. ID is the identifier every layer
// that handles the same unit of work shares: the cell key, or the lease
// id on the dispatch protocol.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent"`   // index of the causing span; -1 for a root
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`   // -1 while open
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory; writeSpans saves them when the run ends.
// Safe for concurrent use.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name, id string, parent int) int {
	return t.add(span{Name: name, ID: id, Parent: parent, Start: t.now(), End: -1})
}

// add records a span whose times the caller measured.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
}

// setID names an open span once its identifier is known.
func (t *tracer) setID(i int, id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].ID = id
}

func (t *tracer) startOf(i int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[i].Start
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the lengths of the closed spans called name, in ms.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.dur()/1e6)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children that overlap (cells run
// by concurrent workers) count once; parts of a child outside its parent
// count not at all. Open spans have no self time.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		var iv [][2]int64
		for _, k := range kids[i] {
			c := spans[k]
			if c.End < 0 {
				continue
			}
			if a, b := max(c.Start, s.Start), min(c.End, s.End); a < b {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		for _, v := range iv {
			a := max(v[0], reach)
			if v[1] > a {
				covered += v[1] - a
			}
			reach = max(reach, v[1])
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// writeSpans saves the run's spans as JSON lines in the scratch
// directory, named after the workload, the seed and label. Losing the
// file does not change any metric, so a failure is reported on stderr
// only.
func writeSpans(t *tracer, cfg config, label string) {
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d-%s.jsonl", cfg.workload, cfg.seed, label))
	if err := writeSpanFile(path, t.snapshot()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
		return
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
}

func writeSpanFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
