package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/faultfs"
)

type rec struct {
	K string `json:"k"`
	N int    `json:"n"`
}

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaign.journal")
}

// TestCreateAppendResume is the basic WAL round trip: records written
// before a "crash" come back, in order, from Resume.
func TestCreateAppendResume(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, "fp1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(rec{K: "cell", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, rv, err := Resume(path, "fp1")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rv.Torn {
		t.Fatalf("clean journal reported torn (%d bytes)", rv.TornBytes)
	}
	if len(rv.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rv.Records))
	}
	for i, p := range rv.Records {
		want := fmt.Sprintf(`{"k":"cell","n":%d}`, i)
		if string(p) != want {
			t.Fatalf("record %d = %s, want %s", i, p, want)
		}
	}
	// Appends after a resume land after the recovered tail.
	if err := j2.Append(rec{K: "cell", N: 5}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, rv2, err := Resume(path, "fp1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rv2.Records) != 6 {
		t.Fatalf("after resumed append: %d records, want 6", len(rv2.Records))
	}
}

// TestResumeTornTail: a partial final frame (the crash-in-mid-append
// shape) is truncated; every complete frame before it survives, and the
// journal keeps working from the truncation point.
func TestResumeTornTail(t *testing.T) {
	path := tmpJournal(t)
	j, _ := Create(path, "fp")
	for i := 0; i < 3; i++ {
		if err := j.Append(rec{K: "x", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Tear the tail: chop into the last frame.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rv, err := Resume(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if !rv.Torn || rv.TornBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", rv)
	}
	if len(rv.Records) != 2 {
		t.Fatalf("recovered %d records after tear, want 2", len(rv.Records))
	}
	if err := j2.Append(rec{K: "x", N: 99}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, rv3, err := Resume(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if rv3.Torn || len(rv3.Records) != 3 {
		t.Fatalf("post-tear journal unhealthy: torn=%v records=%d", rv3.Torn, len(rv3.Records))
	}
}

// TestResumeHeaderOnly: a journal that stopped right after Create — the
// header frame is durable but no cell was ever recorded — resumes cleanly
// as an empty campaign: zero records, nothing torn, and further appends
// land on the clean post-header boundary.
func TestResumeHeaderOnly(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, rv, err := Resume(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if rv.Torn || rv.TornBytes != 0 {
		t.Fatalf("header-only journal reported torn: %+v", rv)
	}
	if len(rv.Records) != 0 {
		t.Fatalf("header-only journal recovered %d records, want 0", len(rv.Records))
	}
	if rv.Fingerprint != "fp" {
		t.Fatalf("fingerprint = %q, want %q", rv.Fingerprint, "fp")
	}
	if err := j2.Append(rec{K: "x", N: 1}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, rv2, err := Resume(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if rv2.Torn || len(rv2.Records) != 1 {
		t.Fatalf("after post-resume append: torn=%v records=%d, want clean 1",
			rv2.Torn, len(rv2.Records))
	}
}

// TestResumeCorruptFrame: a bit flip inside a frame fails its CRC; the
// journal is truncated at that frame (dropping it and everything after).
func TestResumeCorruptFrame(t *testing.T) {
	path := tmpJournal(t)
	j, _ := Create(path, "fp")
	for i := 0; i < 4; i++ {
		j.Append(rec{K: "x", N: i})
	}
	j.Close()
	data, _ := os.ReadFile(path)
	// Flip a payload byte in the third record frame (header + 2 full
	// records stay intact).
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines[3][12] ^= 0x40
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, rv, err := Resume(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if !rv.Torn {
		t.Fatal("corrupt frame not reported as torn")
	}
	if len(rv.Records) != 2 {
		t.Fatalf("recovered %d records, want 2 (everything from the corrupt frame on is dropped)", len(rv.Records))
	}
}

// TestResumeFingerprintMismatch: a journal recorded under a different
// configuration is refused with the typed error.
func TestResumeFingerprintMismatch(t *testing.T) {
	path := tmpJournal(t)
	j, _ := Create(path, "fp-old")
	j.Append(rec{K: "x", N: 1})
	j.Close()
	_, _, err := Resume(path, "fp-new")
	var me *MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("want *MismatchError, got %v", err)
	}
	if me.Want != "fp-new" || me.Got != "fp-old" {
		t.Fatalf("mismatch error fields: %+v", me)
	}
}

// TestResumeEmptyFile: an empty file (crash before the header was
// durable) is a valid empty journal — the header is rewritten and appends
// work.
func TestResumeEmptyFile(t *testing.T) {
	path := tmpJournal(t)
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j, rv, err := Resume(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if len(rv.Records) != 0 {
		t.Fatalf("empty file yielded %d records", len(rv.Records))
	}
	if err := j.Append(rec{K: "x", N: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, rv2, err := Resume(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if len(rv2.Records) != 1 {
		t.Fatalf("records after append to recovered empty journal: %d", len(rv2.Records))
	}
}

// TestResumeMissingFile: resuming a journal that was never created is an
// error, not a silent fresh start.
func TestResumeMissingFile(t *testing.T) {
	if _, _, err := Resume(filepath.Join(t.TempDir(), "nope.journal"), "fp"); err == nil {
		t.Fatal("resume of a missing journal succeeded")
	}
}

// TestFingerprintStable: same value, same extras → same fingerprint;
// different inputs diverge.
func TestFingerprintStable(t *testing.T) {
	a, err := Fingerprint(rec{K: "x", N: 1}, "v1")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Fingerprint(rec{K: "x", N: 1}, "v1")
	if a != b {
		t.Fatal("fingerprint not deterministic")
	}
	c, _ := Fingerprint(rec{K: "x", N: 2}, "v1")
	d, _ := Fingerprint(rec{K: "x", N: 1}, "v2")
	if a == c || a == d {
		t.Fatal("fingerprint ignores inputs")
	}
}

// TestWriteFileAtomic: the target appears with the full content and no
// temp file survives.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plot.dat")
	if err := WriteFileAtomic(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new content"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "new content" {
		t.Fatalf("read back %q, %v", got, err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("stray files left behind: %v", entries)
	}
}

// TestWriteFileAtomicDirSyncError: the rename is only durable once the
// parent directory entry is synced; a directory that cannot be fsynced
// (here: gone by rename time) must surface an error, not report a
// durable write that isn't.
func TestWriteFileAtomicDirSyncError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nope")
	if err := WriteFileAtomic(filepath.Join(dir, "plot.dat"), []byte("x"), 0o644); err == nil {
		t.Fatal("write into a missing directory reported success")
	}
	if err := syncDirFS(faultfs.OS, dir); err == nil {
		t.Fatal("syncDir on a missing directory reported success")
	}
}

// TestAppendRepairsTransientFault: a partial frame write (injected
// ENOSPC halfway through the frame) is repaired in place — truncate back
// to the last good boundary — and retried, so Append succeeds, the
// observer sees the repair, and a later Resume finds a clean journal
// with every record intact.
func TestAppendRepairsTransientFault(t *testing.T) {
	path := tmpJournal(t)
	ffs := faultfs.New(nil)
	// Frame writes: header is OpWrite #1, record 0 is #2, record 1 is #3.
	ffs.Script(faultfs.Fault{Op: faultfs.OpWrite, N: 3, Err: syscall.ENOSPC, Partial: 0.5})

	j, err := CreateFS(ffs, path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	var repairs int
	j.OnRetry(func(err error, attempt int) {
		if !errors.Is(err, syscall.ENOSPC) {
			t.Errorf("repair observer got %v, want ENOSPC", err)
		}
		repairs++
	})
	for i := 0; i < 3; i++ {
		if err := j.Append(rec{K: "x", N: i}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	j.Close()
	if repairs != 1 {
		t.Fatalf("repairs = %d, want 1", repairs)
	}
	if ffs.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", ffs.Injected())
	}

	_, rv, err := Resume(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if rv.Torn {
		t.Fatalf("repaired journal reports torn (%d bytes)", rv.TornBytes)
	}
	if len(rv.Records) != 3 {
		t.Fatalf("recovered %d records, want 3", len(rv.Records))
	}
}

// TestAppendCrashPartialFrameRecovery: an ENOSPC that persists half a
// frame and then freezes the filesystem (the crash-point shape) defeats
// the in-place repair — but reopening the journal after the "reboot"
// truncates the torn tail and recovers every previously durable record.
func TestAppendCrashPartialFrameRecovery(t *testing.T) {
	path := tmpJournal(t)
	ffs := faultfs.New(nil)
	ffs.Script(faultfs.Fault{Op: faultfs.OpWrite, N: 3, Err: syscall.ENOSPC, Partial: 0.6, Crash: true})

	j, err := CreateFS(ffs, path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec{K: "x", N: 0}); err != nil {
		t.Fatal(err)
	}
	err = j.Append(rec{K: "x", N: 1})
	if err == nil {
		t.Fatal("append on a crashed filesystem reported success")
	}
	if !strings.Contains(err.Error(), "tail repair failed") {
		t.Fatalf("err = %v, want the repair-failed shape", err)
	}
	j.Close()

	// The partial frame really is on disk — the recovery path must earn
	// its keep, not be handed a clean file.
	data, _ := os.ReadFile(path)
	if data[len(data)-1] == '\n' {
		t.Fatal("test setup: no torn partial frame on disk")
	}

	// "Reboot": reopen through a healthy filesystem.
	j2, rv, err := Resume(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if !rv.Torn || rv.TornBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", rv)
	}
	if len(rv.Records) != 1 {
		t.Fatalf("recovered %d records, want 1", len(rv.Records))
	}
	if err := j2.Append(rec{K: "x", N: 2}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, rv2, err := Resume(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if rv2.Torn || len(rv2.Records) != 2 {
		t.Fatalf("post-recovery journal unhealthy: torn=%v records=%d", rv2.Torn, len(rv2.Records))
	}
}

// TestAppendTypedErrorWhenExhausted: a fault on every attempt of the
// retry budget fails the append, and the underlying errno survives the
// wrapping, so callers can errors.Is on ENOSPC/EIO and degrade
// deliberately.
func TestAppendTypedErrorWhenExhausted(t *testing.T) {
	path := tmpJournal(t)
	ffs := faultfs.New(nil)
	// Frame writes: the header is OpWrite #1; record 0's attempts are #2
	// onwards, one more than the retries.
	for n := 2; n <= 2+appendRetries; n++ {
		ffs.Script(faultfs.Fault{Op: faultfs.OpWrite, N: n, Err: syscall.ENOSPC})
	}

	j, err := CreateFS(ffs, path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	err = j.Append(rec{K: "x", N: 0})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append error %v does not unwrap to ENOSPC", err)
	}
	if got := ffs.Injected(); got != 1+appendRetries {
		t.Fatalf("injected = %d, want %d (every attempt)", got, 1+appendRetries)
	}
	// The repair ran: the journal is still usable once the fault clears.
	if err := j.Append(rec{K: "x", N: 1}); err != nil {
		t.Fatal(err)
	}
	_, rv, err := ResumeFS(faultfs.OS, path, "fp")
	if err != nil || len(rv.Records) != 1 || rv.Torn {
		t.Fatalf("post-failure journal: records=%d torn=%v err=%v", len(rv.Records), rv.Torn, err)
	}
}

// TestWriteFileAtomicFaultPaths: whichever step fails — the temp-file
// write, the rename, or the directory fsync — the destination either
// keeps its old content or atomically has the new one, and no temp file
// survives.
func TestWriteFileAtomicFaultPaths(t *testing.T) {
	cases := []struct {
		name  string
		fault faultfs.Fault
		// wantOld: destination must still hold the old content after the
		// failed write (false = either old or new is acceptable — the dir
		// fsync failure happens after the rename).
		wantOld bool
	}{
		{"tmp write fails", faultfs.Fault{Op: faultfs.OpWrite, N: 1, Err: syscall.ENOSPC, Partial: 0.5}, true},
		{"tmp fsync fails", faultfs.Fault{Op: faultfs.OpSync, N: 1, Err: syscall.EIO}, true},
		{"rename fails", faultfs.Fault{Op: faultfs.OpRename, N: 1, Err: syscall.EIO}, true},
		{"dir fsync fails", faultfs.Fault{Op: faultfs.OpSync, N: 2, Err: syscall.EIO}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "plot.dat")
			if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			ffs := faultfs.New(nil)
			ffs.Script(c.fault)
			err := WriteFileAtomicFS(ffs, path, []byte("new content"), 0o644)
			if err == nil {
				t.Fatal("faulted write reported success")
			}
			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatalf("destination vanished: %v", rerr)
			}
			if c.wantOld && string(got) != "old" {
				t.Fatalf("destination corrupted: %q", got)
			}
			if !c.wantOld && string(got) != "old" && string(got) != "new content" {
				t.Fatalf("destination neither old nor new: %q", got)
			}
			entries, _ := os.ReadDir(dir)
			if len(entries) != 1 {
				names := make([]string, 0, len(entries))
				for _, e := range entries {
					names = append(names, e.Name())
				}
				t.Fatalf("temp files left behind: %v", names)
			}
		})
	}
}
