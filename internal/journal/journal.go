// Package journal implements the durable campaign log behind
// `experiment -journal`: an append-only, fsync'd, CRC-framed NDJSON
// write-ahead log. Every completed measurement cell is appended as one
// frame before its result is used, so a campaign interrupted by a signal
// or a crash of the control host can be resumed from the journal and
// still produce byte-identical output.
//
// # Frame format
//
// A journal is a sequence of newline-terminated frames:
//
//	cccccccc<SP><payload>\n
//
// where cccccccc is the IEEE CRC-32 of the payload as exactly eight
// lowercase hex digits, <SP> is one ASCII space, and <payload> is one
// JSON document with no raw newline (encoding/json never emits one).
// The first frame is the header
//
//	{"magic":"repro-journal","v":1,"fingerprint":"<hex>"}
//
// whose fingerprint binds the journal to one campaign configuration; a
// journal must never be replayed against a different one. Every frame
// after the header is an opaque record payload owned by the caller.
//
// # Recovery
//
// Recovery scans frames from the start and stops at the first frame that
// is torn (no trailing newline), misframed, or fails its CRC: the file is
// truncated at the last good frame boundary and everything before it is
// returned. A torn final record — the expected shape after a crash in
// mid-append — therefore costs exactly the frames from the tear onward,
// never the journal.
//
// # Storage faults
//
// All I/O goes through the faultfs.FS seam (CreateFS/ResumeFS/
// WriteFileAtomicFS; the plain functions use the real filesystem), so a
// chaos run can inject ENOSPC, EIO, short writes and crash points.
// Append is self-healing against transient storage faults: a failed or
// partial frame write is repaired by truncating back to the last good
// frame boundary, and the append is retried with bounded backoff —
// pause-and-retry, never a silently lost record. Only when the budget is
// exhausted (a genuinely dead disk) does Append fail, and it fails with
// the underlying typed error (errors.Is ENOSPC/EIO works) so callers can
// degrade deliberately.
package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faultfs"
)

// Magic identifies a journal header frame.
const Magic = "repro-journal"

// Version is the journal format version written into the header.
const Version = 1

// Header is the first frame of every journal.
type Header struct {
	Magic       string `json:"magic"`
	V           int    `json:"v"`
	Fingerprint string `json:"fingerprint"`
}

// ParseHeader decodes a journal header frame payload and validates its
// magic and version.
func ParseHeader(payload []byte) (Header, error) {
	var h Header
	if err := json.Unmarshal(payload, &h); err != nil || h.Magic != Magic {
		return Header{}, fmt.Errorf("journal: frame is not a journal header")
	}
	if h.V != Version {
		return Header{}, fmt.Errorf("journal: unsupported journal version %d", h.V)
	}
	return h, nil
}

// MismatchError reports a journal whose header fingerprint does not match
// the campaign configuration it is being replayed against. Resuming must
// refuse: the recorded cells belong to a different experiment setup.
type MismatchError struct {
	Path string
	Want string // fingerprint of the resuming configuration
	Got  string // fingerprint recorded in the journal header
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("journal: %s was recorded for a different configuration (journal fingerprint %.12s…, current %.12s…)",
		e.Path, e.Got, e.Want)
}

// Recovery is the result of replaying an existing journal.
type Recovery struct {
	// Fingerprint is the campaign fingerprint from the journal header.
	Fingerprint string
	// Records holds the recovered record payloads (header excluded), in
	// append order. Duplicate keys are the caller's concern: the WAL
	// contract is last-write-wins.
	Records [][]byte
	// Torn reports that the tail of the file was truncated at a torn or
	// corrupt frame; TornBytes is how many bytes were discarded.
	Torn      bool
	TornBytes int64
}

// Append-retry budget: transient storage faults (ENOSPC, EIO, short
// writes) are repaired and retried with doubling backoff before Append
// gives up. The total pause is ~Σ delay·2^i ≈ 620 ms — long enough for
// a hiccuping disk, short enough that a dead one fails fast.
const (
	appendRetries = 5
	retryDelay    = 20 * time.Millisecond
)

// Journal is an open, appendable campaign journal. Append is safe for
// concurrent use: measurement workers record completed cells in parallel.
type Journal struct {
	mu   sync.Mutex
	f    faultfs.File
	fs   faultfs.FS
	path string
	// good is the byte offset of the last durable frame boundary: the
	// truncation point when a write fails partway through a frame.
	good int64
	// onRetry, when set, observes every repaired-and-retried append.
	onRetry func(err error, attempt int)
}

// OnRetry registers an observer of append repairs: fn runs after a
// failed frame write has been truncated away, before the retry.
func (j *Journal) OnRetry(fn func(err error, attempt int)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.onRetry = fn
}

// Create starts a fresh journal at path (truncating any previous one),
// writes the fsync'd header frame, and returns the open journal.
func Create(path, fingerprint string) (*Journal, error) {
	return CreateFS(faultfs.OS, path, fingerprint)
}

// CreateFS is Create through an injectable filesystem.
func CreateFS(fsys faultfs.FS, path, fingerprint string) (*Journal, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, fs: fsys, path: path}
	if err := j.appendHeader(fingerprint); err != nil {
		f.Close()
		return nil, err
	}
	// The directory entry of a fresh journal must be durable too; a
	// transient fsync fault here gets the same pause-and-retry treatment
	// as a failed append.
	if err := retryTransient(func() error { return syncDirFS(fsys, filepath.Dir(path)) }); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// retryTransient runs fn, pausing and retrying on transient storage
// faults (ENOSPC, EIO, short writes) with the append-retry budget.
func retryTransient(fn func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		if err = fn(); err == nil || attempt >= appendRetries || !faultfs.IsTransient(err) {
			return err
		}
		time.Sleep(retryDelay << uint(attempt))
	}
}

// Resume opens an existing journal for replay and further appends: the
// recovered records are returned and the file is truncated at the last
// good frame so new appends continue from a clean boundary. A journal
// recorded under a different fingerprint is refused with *MismatchError.
// An empty file (a crash before the header reached the disk) is a valid
// empty journal: the header is rewritten and no records are returned.
func Resume(path, fingerprint string) (*Journal, *Recovery, error) {
	return ResumeFS(faultfs.OS, path, fingerprint)
}

// ResumeFS is Resume through an injectable filesystem.
func ResumeFS(fsys faultfs.FS, path, fingerprint string) (*Journal, *Recovery, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	payloads, good := scanFrames(data)
	rec := &Recovery{Torn: good < int64(len(data)), TornBytes: int64(len(data)) - good}
	j := &Journal{f: f, fs: fsys, path: path, good: good}

	if len(payloads) == 0 {
		// Nothing durable yet — start over as an empty journal.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.Seek(0, 0); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := j.appendHeader(fingerprint); err != nil {
			f.Close()
			return nil, nil, err
		}
		rec.Fingerprint = fingerprint
		return j, rec, nil
	}

	h, err := ParseHeader(payloads[0])
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %s: %w", path, err)
	}
	if h.Fingerprint != fingerprint {
		f.Close()
		return nil, nil, &MismatchError{Path: path, Want: fingerprint, Got: h.Fingerprint}
	}
	rec.Fingerprint = h.Fingerprint
	rec.Records = payloads[1:]

	if rec.Torn {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, rec, nil
}

// scanFrames parses frames from the start of data and stops at the first
// torn, misframed or CRC-failing one. It returns the good payloads and
// the byte offset just past the last good frame.
func scanFrames(data []byte) (payloads [][]byte, good int64) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail: no newline
		}
		line := data[off : off+nl]
		payload, ok := parseFrame(line)
		if !ok {
			break
		}
		payloads = append(payloads, payload)
		off += nl + 1
	}
	return payloads, int64(off)
}

// parseFrame validates one frame line (without the newline) and returns
// its payload.
func parseFrame(line []byte) ([]byte, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, false
	}
	var want uint32
	for _, c := range line[:8] {
		var v uint32
		switch {
		case c >= '0' && c <= '9':
			v = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint32(c-'a') + 10
		default:
			return nil, false
		}
		want = want<<4 | v
	}
	payload := line[9:]
	if crc32.ChecksumIEEE(payload) != want {
		return nil, false
	}
	return payload, true
}

// Append marshals v and durably appends it as one frame: the write is
// fsync'd before Append returns, so a record handed to the journal
// survives a crash of the process.
func (j *Journal) Append(v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if bytes.IndexByte(payload, '\n') >= 0 {
		return fmt.Errorf("journal: payload contains a raw newline")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(payload)
}

func (j *Journal) appendHeader(fingerprint string) error {
	payload, err := json.Marshal(Header{Magic: Magic, V: Version, Fingerprint: fingerprint})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(payload)
}

// appendFrame appends payload to dst as one frame.
func appendFrame(dst, payload []byte) []byte {
	dst = fmt.Appendf(dst, "%08x ", crc32.ChecksumIEEE(payload))
	dst = append(dst, payload...)
	return append(dst, '\n')
}

func (j *Journal) appendLocked(payload []byte) error {
	frame := appendFrame(make([]byte, 0, len(payload)+10), payload)
	var err error
	for attempt := 0; ; attempt++ {
		err = j.writeFrameLocked(frame)
		if err == nil {
			return nil
		}
		// A failed write may have persisted a prefix of the frame: repair
		// by truncating back to the last good frame boundary, so the
		// retry (or the next append) never lands after garbage. If the
		// repair itself fails, the file is beyond in-place recovery —
		// reopening with Resume will truncate the torn tail instead.
		if rerr := j.repairLocked(); rerr != nil {
			return fmt.Errorf("journal: append failed (%w) and tail repair failed: %v", err, rerr)
		}
		if attempt >= appendRetries || !faultfs.IsTransient(err) {
			return fmt.Errorf("journal: append failed after %d attempts: %w", attempt+1, err)
		}
		if j.onRetry != nil {
			j.onRetry(err, attempt+1)
		}
		time.Sleep(retryDelay << uint(attempt))
	}
}

// writeFrameLocked appends one frame and fsyncs it, advancing the good
// boundary only when both succeed.
func (j *Journal) writeFrameLocked(frame []byte) error {
	if _, err := j.f.Write(frame); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.good += int64(len(frame))
	return nil
}

// repairLocked truncates the file back to the last durable frame
// boundary after a failed append, discarding any partial frame bytes.
func (j *Journal) repairLocked() error {
	if err := j.f.Truncate(j.good); err != nil {
		return err
	}
	_, err := j.f.Seek(j.good, 0)
	return err
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close flushes and closes the journal file. Records are fsync'd on every
// Append, so Close never loses data.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// Fingerprint hashes an arbitrary configuration value (via its JSON form)
// plus any extra strings into a hex campaign fingerprint. The same inputs
// always produce the same fingerprint, so it is safe to compare across
// process restarts.
func Fingerprint(v any, extra ...string) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(b)
	for _, e := range extra {
		h.Write([]byte{0})
		h.Write([]byte(e))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// WriteFileAtomic writes data to path via a temporary file in the same
// directory, fsync, and rename — so a crash mid-write leaves either the
// old file or the new one, never a truncated artifact (a half-written
// .dat file is exactly what gnuplot chokes on).
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return WriteFileAtomicFS(faultfs.OS, path, data, perm)
}

// WriteFileAtomicFS is WriteFileAtomic through an injectable
// filesystem. On every failure path the destination is untouched (the
// old content, or absence, survives intact) and the temporary file is
// removed.
func WriteFileAtomicFS(fsys faultfs.FS, path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// The rename is only durable once the parent directory's entry table
	// reaches disk: a crash before that can silently resurrect the old
	// file, so a failed directory fsync must surface, not be swallowed.
	return syncDirFS(fsys, dir)
}

// syncDirFS makes a directory entry change (create, rename) durable.
func syncDirFS(fsys faultfs.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
