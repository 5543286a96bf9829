package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalFrames feeds arbitrary file bytes to every decoder that
// reads a journal from disk and checks that they agree with scanFrames,
// the recovery scan:
//
//   - re-encoding the good frames reproduces the good prefix exactly;
//   - a Reader yields the same payloads, then waits at a torn tail and
//     reports ErrCorrupt at a complete bad line;
//   - ReadAll and ParseHeader never panic, and ReadAll returns the
//     records whenever the first frame is a header;
//   - then Resume returns the same records, truncates the file to the
//     good prefix, and a further Append is read back.
func FuzzJournalFrames(f *testing.F) {
	for _, seed := range journalSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, good := scanFrames(data)

		var enc []byte
		for _, p := range payloads {
			enc = appendFrame(enc, p)
		}
		if !bytes.Equal(enc, data[:good]) {
			t.Fatalf("re-encoded frames %q differ from the good prefix %q", enc, data[:good])
		}

		path := filepath.Join(t.TempDir(), "campaign.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range payloads {
			got, ok, err := r.Next()
			if err != nil || !ok || !bytes.Equal(got, want) {
				t.Fatalf("Reader frame %d = %q, %v, %v; want %q", i, got, ok, err, want)
			}
		}
		_, ok, err := r.Next()
		r.Close()
		if bytes.IndexByte(data[good:], '\n') >= 0 {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Reader past the good prefix: ok=%v err=%v, want ErrCorrupt", ok, err)
			}
		} else if ok || err != nil {
			t.Fatalf("Reader at a torn tail: ok=%v err=%v, want to wait", ok, err)
		}

		h, recs, rerr := ReadAll(path)
		var hdr Header
		herr := errors.New("no frame")
		if len(payloads) > 0 {
			hdr, herr = ParseHeader(payloads[0])
		}
		if herr != nil {
			if rerr == nil {
				t.Fatalf("ReadAll accepted a journal without a header: %+v", h)
			}
			return
		}
		if rerr != nil || h != hdr || !equalPayloads(recs, payloads[1:]) {
			t.Fatalf("ReadAll = %+v, %d records, %v; want %+v and %d records", h, len(recs), rerr, hdr, len(payloads)-1)
		}

		j, rv, err := Resume(path, hdr.Fingerprint)
		if err != nil {
			t.Fatalf("Resume: %v", err)
		}
		if !equalPayloads(rv.Records, payloads[1:]) {
			j.Close()
			t.Fatalf("Resume recovered %d records, want %d", len(rv.Records), len(payloads)-1)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != good {
			j.Close()
			t.Fatalf("file after Resume: %v, %v; want %d bytes", fi, err, good)
		}
		if err := j.Append(rec{K: "next", N: len(payloads)}); err != nil {
			j.Close()
			t.Fatalf("Append after Resume: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(rec{K: "next", N: len(payloads)})
		_, recs, err = ReadAll(path)
		if err != nil || !equalPayloads(recs, append(append([][]byte(nil), payloads[1:]...), want)) {
			t.Fatalf("ReadAll after Append = %d records, %v; want %d", len(recs), err, len(payloads))
		}
	})
}

func equalPayloads(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// journalSeeds returns a real journal and the damaged shapes a crash or
// a bad disk leaves: a torn tail, a flipped CRC, uppercase hex, a
// missing space, a line under 10 bytes and a version-2 header.
func journalSeeds(f *testing.F) [][]byte {
	path := filepath.Join(f.TempDir(), "seed.journal")
	j, err := Create(path, "fp-seed")
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(rec{K: "cell", N: i}); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	records := clean[bytes.IndexByte(clean, '\n')+1:]
	header := clean[:len(clean)-len(records)]
	v2, err := json.Marshal(Header{Magic: Magic, V: 2, Fingerprint: "fp-seed"})
	if err != nil {
		f.Fatal(err)
	}
	const p = `{"k":"cell","n":0}` // its CRC, 42ffb66d, has hex letters
	crc := crc32.ChecksumIEEE([]byte(p))
	with := func(line []byte) []byte { return append(bytes.Clone(header), line...) }
	return [][]byte{
		clean,
		append(bytes.Clone(clean), `deadbeef {"k":"cell","n":3`...),
		with(fmt.Appendf(nil, "%08x %s\n", crc^1, p)),
		with(fmt.Appendf(nil, "%08X %s\n", crc, p)),
		with(fmt.Appendf(nil, "%08x%s\n", crc, p)),
		with([]byte("abc\n")),
		append(appendFrame(nil, v2), records...),
	}
}
