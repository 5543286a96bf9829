package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"testing"
	"time"
)

// TestReaderTailsLiveWriter is the monitoring service's core guarantee:
// a Reader following a journal while a writer appends sees every frame
// exactly once, in order, and never an error — run under -race to prove
// the file-level handoff needs no shared memory.
func TestReaderTailsLiveWriter(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, "fp-tail")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	const n = 200
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; i < n; i++ {
			if err := j.Append(rec{K: "cell", N: i}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var got []rec
	sawHeader := false
	deadline := time.Now().Add(30 * time.Second)
	for len(got) < n {
		payload, ok, err := r.Next()
		if err != nil {
			t.Fatalf("reader error after %d records: %v", len(got), err)
		}
		if !ok {
			if time.Now().After(deadline) {
				t.Fatalf("timed out after %d/%d records", len(got), n)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		if !sawHeader {
			h, err := ParseHeader(payload)
			if err != nil {
				t.Fatalf("first frame: %v", err)
			}
			if h.Fingerprint != "fp-tail" {
				t.Fatalf("header fingerprint = %q", h.Fingerprint)
			}
			sawHeader = true
			continue
		}
		var rc rec
		if err := json.Unmarshal(payload, &rc); err != nil {
			t.Fatal(err)
		}
		got = append(got, rc)
	}
	<-writerDone

	for i, rc := range got {
		if rc.N != i {
			t.Fatalf("record %d has n=%d: frames reordered or duplicated", i, rc.N)
		}
	}
	// The journal is drained: one more poll yields nothing, not an error.
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("drained journal: Next = (ok=%v, err=%v), want idle", ok, err)
	}
}

// TestReaderTornTail: a frame missing its newline (the crash-mid-append
// shape) is "not yet visible", not corruption — the Reader waits, and
// once the writer completes the frame it is delivered exactly once.
func TestReaderTornTail(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, "fp-torn")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec{K: "cell", N: 0}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 2; i++ { // header + the first record
		if _, ok, err := r.Next(); !ok || err != nil {
			t.Fatalf("frame %d: ok=%v err=%v", i, ok, err)
		}
	}

	// Append half a frame by hand: CRC, space, and a payload prefix with
	// no newline.
	payload, _ := json.Marshal(rec{K: "cell", N: 1})
	frame := fmt.Sprintf("%08x %s", crc32.ChecksumIEEE(payload), payload)
	half := frame[:len(frame)-4]
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(half); err != nil {
		t.Fatal(err)
	}

	// The torn frame must not surface — and must not be an error.
	for i := 0; i < 3; i++ {
		if p, ok, err := r.Next(); ok || err != nil {
			t.Fatalf("torn tail surfaced: payload=%q ok=%v err=%v", p, ok, err)
		}
	}

	// Complete the frame: it becomes visible exactly once.
	if _, err := f.WriteString(frame[len(half):] + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	p, ok, err := r.Next()
	if !ok || err != nil {
		t.Fatalf("completed frame: ok=%v err=%v", ok, err)
	}
	var rc rec
	if err := json.Unmarshal(p, &rc); err != nil {
		t.Fatal(err)
	}
	if rc.N != 1 {
		t.Fatalf("completed frame n=%d, want 1", rc.N)
	}
	if _, ok, _ := r.Next(); ok {
		t.Fatal("completed frame delivered twice")
	}
}

// TestReaderCorruptFrame: a complete line that fails its CRC is a
// permanent ErrCorrupt, not a retry.
func TestReaderCorruptFrame(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, "fp-bad")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("deadbeef {\"k\":\"cell\"}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok, err := r.Next(); !ok || err != nil { // header
		t.Fatalf("header: ok=%v err=%v", ok, err)
	}
	if _, _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt frame: err=%v, want ErrCorrupt", err)
	}
}

// TestReaderHeaderOnly: tailing a journal that holds only its header
// frame yields exactly that frame and then reports "nothing yet" — no
// error, no phantom records — and picks records up once they arrive.
func TestReaderHeaderOnly(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, "fp-hdr")
	if err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	payload, ok, err := r.Next()
	if err != nil || !ok {
		t.Fatalf("header frame: ok=%v err=%v", ok, err)
	}
	h, err := ParseHeader(payload)
	if err != nil || h.Fingerprint != "fp-hdr" {
		t.Fatalf("header = %+v, err=%v", h, err)
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("header-only journal: Next ok=%v err=%v, want no frame, no error", ok, err)
	}
	if err := j.Append(rec{K: "cell", N: 0}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, ok, err := r.Next(); !ok || err != nil {
		t.Fatalf("appended record not visible: ok=%v err=%v", ok, err)
	}
}

// TestReaderIdleNextAllocatesNothing: a Reader polled at the end of its
// journal, as the monitor polls one per idle stream, reuses its read
// buffer instead of allocating a chunk per poll.
func TestReaderIdleNextAllocatesNothing(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, "fp-idle")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 3; i++ {
		if err := j.Append(rec{K: "cell", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for frames := 0; frames < 4; frames++ {
		if _, ok, err := r.Next(); !ok || err != nil {
			t.Fatalf("frame %d: ok=%v err=%v", frames, ok, err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok, err := r.Next(); ok || err != nil {
			t.Fatalf("at EOF: ok=%v err=%v, want no frame, no error", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Next at EOF allocates %.1f times per call, want 0", allocs)
	}
}

// TestReadAllHeaderOnly: a header-only journal snapshots as zero records,
// not as an error — the shape of a campaign interrupted before its first
// completed cell.
func TestReadAllHeaderOnly(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, "fp-hdr")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	h, recs, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Fingerprint != "fp-hdr" || len(recs) != 0 {
		t.Fatalf("header-only ReadAll = %+v, %d records; want fp-hdr, 0", h, len(recs))
	}
}

// TestReadAll snapshots a journal without modifying it, torn tail and
// all.
func TestReadAll(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, "fp-all")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(rec{K: "cell", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString("12345678 torn")
	f.Close()
	before, _ := os.ReadFile(path)

	h, recs, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Fingerprint != "fp-all" {
		t.Fatalf("fingerprint = %q", h.Fingerprint)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	after, _ := os.ReadFile(path)
	if string(before) != string(after) {
		t.Fatal("ReadAll modified the journal file")
	}
}
