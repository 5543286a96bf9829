// Read-only journal access: the monitoring service follows a live
// campaign's write-ahead log without ever opening it for writing. A
// Reader tails a journal that may still be growing; ReadAll snapshots
// every complete frame of a finished (or paused) one.
package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// ErrCorrupt reports a complete frame (newline present) that failed its
// framing or CRC check — real corruption, as opposed to a torn tail
// still being appended, which a Reader simply waits out.
var ErrCorrupt = errors.New("journal: corrupt frame")

// Reader follows a journal file, yielding one frame payload per Next
// call — the header frame first. It never blocks and never writes: a
// frame is visible once its trailing newline is on disk (the writer
// appends frame and newline in a single write), so a missing newline
// means "the writer is mid-append, come back later", while a complete
// line that fails its CRC is corruption and a permanent error.
type Reader struct {
	f   *os.File
	buf []byte // the one read buffer; buf[pos:] is read but not yet returned
	pos int
	off int64
}

// readChunk is the least free space a fill reads into.
const readChunk = 64 << 10

// OpenReader opens the journal at path for tailing.
func OpenReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &Reader{f: f}, nil
}

// Next returns the next complete frame payload. ok is false when no
// complete frame is available yet — poll again later; the payload is a
// private copy, safe to retain. A complete frame that fails validation
// returns an error wrapping ErrCorrupt, and the Reader is then stuck at
// the corrupt frame by design: nothing after it can be trusted.
func (r *Reader) Next() ([]byte, bool, error) {
	for {
		if nl := bytes.IndexByte(r.buf[r.pos:], '\n'); nl >= 0 {
			line := r.buf[r.pos : r.pos+nl]
			payload, ok := parseFrame(line)
			if !ok {
				return nil, false, fmt.Errorf("%w at byte %d of %s",
					ErrCorrupt, r.off-int64(len(r.buf)-r.pos), r.f.Name())
			}
			out := append([]byte(nil), payload...)
			r.pos += nl + 1
			return out, true, nil
		}
		n, err := r.fill()
		if err != nil {
			return nil, false, err
		}
		if n == 0 {
			return nil, false, nil
		}
	}
}

// fill reads newly appended bytes past the Reader's offset into buf,
// behind the bytes not yet returned, which it first moves to the front.
// buf grows only when those bytes leave less than readChunk free, so a
// Reader polled at the end of its journal allocates nothing.
func (r *Reader) fill() (int, error) {
	r.buf = r.buf[:copy(r.buf, r.buf[r.pos:])]
	r.pos = 0
	r.buf = slices.Grow(r.buf, readChunk)
	n, err := r.f.ReadAt(r.buf[len(r.buf):cap(r.buf)], r.off)
	r.off += int64(n)
	r.buf = r.buf[:len(r.buf)+n]
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// ReadAll snapshots every complete frame currently in the journal at
// path: the parsed header plus the record payloads, in append order. A
// torn tail is ignored (exactly like recovery, but nothing is truncated
// — ReadAll never modifies the file).
func ReadAll(path string) (Header, [][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Header{}, nil, err
	}
	payloads, _ := scanFrames(data)
	if len(payloads) == 0 {
		return Header{}, nil, fmt.Errorf("journal: %s: no header frame", path)
	}
	h, err := ParseHeader(payloads[0])
	if err != nil {
		return Header{}, nil, fmt.Errorf("journal: %s: %w", path, err)
	}
	return h, payloads[1:], nil
}
