package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// referenceFile is the model's reference output: `experiment -all
// -packets 40000` at seed 1, committed at the checkout root.
const referenceFile = "results_full.txt"

// section returns experiment id's block of a document laid out like
// `experiment` output: the text between its "==== id (...) ====" header
// and the next header, without the blank separator line. ok is false
// when the document has no such block.
func section(doc, id string) (text string, ok bool) {
	head := "==== " + id + " ("
	start := -1
	for off := 0; off < len(doc); {
		if strings.HasPrefix(doc[off:], head) {
			start = off
			break
		}
		nl := strings.IndexByte(doc[off:], '\n')
		if nl < 0 {
			break
		}
		off += nl + 1
	}
	if start < 0 {
		return "", false
	}
	nl := strings.IndexByte(doc[start:], '\n')
	if nl < 0 {
		return "", true
	}
	body := doc[start+nl+1:]
	if end := strings.Index(body, "\n==== "); end >= 0 {
		body = body[:end+1]
	}
	return strings.TrimSuffix(body, "\n"), true
}

// tablePart strips the drop-cause table that Options.Why appends, leaving
// the part the reference file holds.
func tablePart(text string) string {
	if i := strings.Index(text, "\n\n# why: "); i >= 0 {
		return text[:i+1]
	}
	return text
}

// reproducesReference reports whether the plan runs at the settings
// results_full.txt was made with, so its tables must match it.
func reproducesReference(p *plan) bool {
	o := p.opts
	return o.Seed == 1 && o.Packets == 40_000 && o.Reps <= 1 && len(o.Rates) == 0 &&
		len(o.Rings) == 0 && o.Policy == "" && o.Chaos == 0
}

// checkReference compares each experiment's table in text with its
// section of the reference file, when the plan reproduces it. A mismatch
// fails every cell of that experiment.
func checkReference(p *plan, text string, cfg config, r *result) {
	if !reproducesReference(p) {
		return
	}
	ref, err := os.ReadFile(filepath.Join(cfg.root, referenceFile))
	if err != nil {
		r.fail("reading the reference: %v", err)
		return
	}
	for i, e := range p.exps {
		want, ok := section(string(ref), e.ID)
		if !ok {
			r.fail("%s has no section in %s", e.ID, referenceFile)
			continue
		}
		got, _ := section(text, e.ID)
		if got = tablePart(got); got != want {
			r.failed += p.expCells[i]
			r.fail("%s: the table differs from its section of %s at %s", e.ID, referenceFile, firstDiff(got, want))
		}
	}
}

// firstDiff describes where two texts part, for failure messages.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%d vs %d lines", len(al), len(bl))
}
