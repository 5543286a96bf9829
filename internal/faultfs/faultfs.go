// Package faultfs is the storage counterpart of the testbed's fault
// model (internal/faults) and the network chaos layer
// (internal/netchaos): an injectable filesystem seam with seeded,
// deterministic fault injection. The durability layer
// (internal/journal) does all of its I/O through the FS interface, so a
// chaos run can make the campaign journal and the dispatch WAL suffer
// the failures real deployments see — disk full (ENOSPC), I/O errors
// (EIO), short writes that persist only a prefix of a frame, and crash
// points between write, sync, and rename — while an ordinary run pays
// nothing but an interface call.
//
// Faults come from two sources that compose:
//
//   - A seeded Plan draws probabilistic faults per operation, keyed by
//     (seed, op, per-op counter) through the same splitmix64 mixing the
//     simulation fault model uses: the fault schedule is a pure function
//     of the seed, so a failing chaos run is replayed exactly by its
//     seed. Plan faults are transient by construction — the next attempt
//     draws a fresh key — which is what makes bounded retry a sound
//     recovery policy.
//   - A scripted Fault list fires on the Nth call of one operation, for
//     regression tests that need a failure at an exact point (the tmp
//     write of WriteFileAtomic, the rename, the directory fsync). A
//     scripted fault can also Crash the filesystem: every later
//     operation fails with ErrCrashed, modeling the process dying with a
//     partial frame on disk.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"

	"repro/internal/mix"
)

// File is the subset of *os.File the durability layer uses.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Name() string
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Chmod(mode os.FileMode) error
}

// FS is the filesystem seam: every operation internal/journal performs.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
}

// OS is the passthrough filesystem: the real one.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Open(name string) (File, error)       { return os.Open(name) }
func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// Op identifies one injectable filesystem operation.
type Op int

const (
	OpWrite Op = iota
	OpSync
	OpRename
	OpOpen
	OpTruncate

	NumOps
)

// String returns the short op label used in fault logs and events.
func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpOpen:
		return "open"
	case OpTruncate:
		return "truncate"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// ErrCrashed is returned by every operation after a scripted Crash
// fault fired: the simulated process is dead, and whatever bytes were
// durable stay exactly as they were.
var ErrCrashed = errors.New("faultfs: filesystem crashed")

// Plan is the seeded probabilistic fault mix. The zero Plan injects
// nothing; DefaultPlan returns the -diskchaos mix. Draws are pure
// functions of (Seed, op, per-op counter), so replays are exact and
// every fault is transient: the retry's fresh counter draws a fresh key.
type Plan struct {
	Seed uint64

	PWriteENOSPC float64 // write persists a prefix, fails ENOSPC
	PWriteEIO    float64 // write persists nothing, fails EIO
	PShortWrite  float64 // write persists a prefix, reports io.ErrShortWrite
	PSyncEIO     float64 // fsync fails EIO (data may or may not be durable)
	PRenameEIO   float64 // rename fails EIO, destination untouched

	// ShortFrac is the fraction of the buffer persisted before a partial
	// write failure (ENOSPC, short write).
	ShortFrac float64
}

// DefaultPlan returns the calibrated -diskchaos mix: frequent enough
// that a campaign exercises the repair and retry paths many times,
// transient enough that the bounded append retry always clears it.
func DefaultPlan(seed uint64) *Plan {
	return &Plan{
		Seed:         seed,
		PWriteENOSPC: 0.04,
		PWriteEIO:    0.03,
		PShortWrite:  0.03,
		PSyncEIO:     0.04,
		PRenameEIO:   0.05,
		ShortFrac:    0.5,
	}
}

func (p *Plan) roll(prob float64, op Op, n uint64, salt uint64) bool {
	if p == nil || prob <= 0 {
		return false
	}
	return mix.Unit(mix.Keys(p.Seed, uint64(op), n, salt)) < prob
}

// Fault is one scripted failure: it fires on the Nth call (1-based) of
// Op, counted across the whole FaultFS.
type Fault struct {
	Op Op
	N  int
	// Err is the error returned; nil defaults to EIO.
	Err error
	// Partial, for OpWrite: the fraction of the buffer persisted before
	// the failure (0 = nothing reaches the file).
	Partial float64
	// Crash kills the filesystem after this fault: every subsequent
	// operation fails with ErrCrashed. The on-disk state freezes as-is,
	// which is exactly the crash-point shape recovery must handle.
	Crash bool
}

// FaultFS wraps an inner FS (nil = OS) with seeded and scripted fault
// injection. Safe for concurrent use.
type FaultFS struct {
	// Plan draws probabilistic faults; nil injects only scripted ones.
	Plan *Plan
	// OnFault, when set, observes every injected fault. It must not call
	// back into the FaultFS.
	OnFault func(op Op, path string, err error)

	inner    FS
	mu       sync.Mutex
	script   []Fault
	counts   [NumOps]uint64
	crashed  bool
	injected uint64
}

// New wraps inner (nil = the real filesystem) with fault injection.
func New(inner FS) *FaultFS {
	if inner == nil {
		inner = OS
	}
	return &FaultFS{inner: inner}
}

// Script arms scripted faults; they fire in addition to any Plan draws.
func (f *FaultFS) Script(faults ...Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.script = append(f.script, faults...)
}

// Injected reports how many faults this FS has injected so far.
func (f *FaultFS) Injected() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Crashed reports whether a scripted Crash fault has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// fault decides what (if anything) goes wrong with the nth call of op.
// The returned partial is meaningful for OpWrite only.
func (f *FaultFS) fault(op Op, path string, salt uint64) (err error, partial float64) {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrCrashed, 0
	}
	f.counts[op]++
	n := f.counts[op]
	for i, s := range f.script {
		if s.Op == op && uint64(s.N) == n {
			err = s.Err
			if err == nil {
				err = syscall.EIO
			}
			partial = s.Partial
			if s.Crash {
				f.crashed = true
			}
			f.script = append(f.script[:i], f.script[i+1:]...)
			break
		}
	}
	if err == nil && f.Plan != nil {
		p := f.Plan
		switch op {
		case OpWrite:
			switch {
			case p.roll(p.PWriteENOSPC, op, n, salt):
				err, partial = syscall.ENOSPC, p.ShortFrac
			case p.roll(p.PWriteEIO, op, n, salt+1):
				err = syscall.EIO
			case p.roll(p.PShortWrite, op, n, salt+2):
				err, partial = io.ErrShortWrite, p.ShortFrac
			}
		case OpSync:
			if p.roll(p.PSyncEIO, op, n, salt) {
				err = syscall.EIO
			}
		case OpRename:
			if p.roll(p.PRenameEIO, op, n, salt) {
				err = syscall.EIO
			}
		}
	}
	if err != nil {
		f.injected++
	}
	cb := f.OnFault
	f.mu.Unlock()
	if err != nil && cb != nil {
		cb(op, path, err)
	}
	return err, partial
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err, _ := f.fault(OpOpen, name, 0); err != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	if err, _ := f.fault(OpOpen, name, 0); err != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if f.Crashed() {
		return nil, &os.PathError{Op: "read", Path: name, Err: ErrCrashed}
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if err, _ := f.fault(OpOpen, dir, 0); err != nil {
		return nil, &os.PathError{Op: "createtemp", Path: dir, Err: err}
	}
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err, _ := f.fault(OpRename, newpath, 0); err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if f.Crashed() {
		return &os.PathError{Op: "remove", Path: name, Err: ErrCrashed}
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if f.Crashed() {
		return &os.PathError{Op: "mkdir", Path: path, Err: ErrCrashed}
	}
	return f.inner.MkdirAll(path, perm)
}

// faultFile threads every mutating file operation back through the
// FaultFS's fault decision.
type faultFile struct {
	fs    *FaultFS
	inner File
}

func (ff *faultFile) Name() string { return ff.inner.Name() }

func (ff *faultFile) Read(p []byte) (int, error) {
	if ff.fs.Crashed() {
		return 0, ErrCrashed
	}
	return ff.inner.Read(p)
}

// Write injects the partial-persistence failures: on ENOSPC and short
// writes a prefix of p really reaches the inner file — the torn-frame
// shape the journal's repair and recovery paths must handle.
func (ff *faultFile) Write(p []byte) (int, error) {
	err, partial := ff.fs.fault(OpWrite, ff.inner.Name(), uint64(len(p)))
	if err != nil {
		n := 0
		if partial > 0 && len(p) > 0 {
			n = int(partial * float64(len(p)))
			if n >= len(p) {
				n = len(p) - 1
			}
			if n > 0 {
				if wn, werr := ff.inner.Write(p[:n]); werr != nil {
					n = wn
				}
			}
		}
		return n, err
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	if err, _ := ff.fs.fault(OpSync, ff.inner.Name(), 0); err != nil {
		return err
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	if err, _ := ff.fs.fault(OpTruncate, ff.inner.Name(), uint64(size)); err != nil {
		return err
	}
	return ff.inner.Truncate(size)
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	if ff.fs.Crashed() {
		return 0, ErrCrashed
	}
	return ff.inner.Seek(offset, whence)
}

func (ff *faultFile) Chmod(mode os.FileMode) error {
	if ff.fs.Crashed() {
		return ErrCrashed
	}
	return ff.inner.Chmod(mode)
}

func (ff *faultFile) Close() error {
	// Close is never injected: a crashed filesystem still lets the
	// process release its descriptors, and recovery tests reopen files
	// through a fresh FS anyway.
	return ff.inner.Close()
}

// IsTransient classifies an injected (or real) storage error as worth a
// pause-and-retry: disk full and I/O errors clear, short writes are
// repaired by truncation and retried. A crashed filesystem is final.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, ErrCrashed) {
		return false
	}
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EIO) ||
		errors.Is(err, io.ErrShortWrite)
}
