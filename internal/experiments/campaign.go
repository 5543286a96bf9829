// Campaign durability: the adapter between the measurement engines'
// CellJournal interface and the on-disk write-ahead log (internal/journal).
//
// A campaign is one invocation of the experiment driver over a fixed
// configuration. Its identity is the campaign fingerprint — a hash of the
// semantic Options fields (packets, reps, seed, rates, chaos seed) and the
// module version — stamped into the journal header. Resuming under a
// different configuration is refused: replaying cells measured under other
// parameters would silently corrupt the results.
package experiments

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"sync"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/journal"
)

// JournalFile is the campaign journal's file name inside the -journal
// directory.
const JournalFile = "campaign.journal"

// fingerprintInput is the semantic identity of a campaign: every Options
// field that changes what the measurement cells compute. Scheduling and
// presentation knobs (Parallelism, Why) and runtime fields (Ctx, Journal)
// are deliberately absent — they never change a cell's result.
type fingerprintInput struct {
	Packets int       `json:"packets"`
	Reps    int       `json:"reps"`
	Seed    uint64    `json:"seed"`
	Rates   []float64 `json:"rates"`
	Chaos   uint64    `json:"chaos"`
	// Policy is omitted when empty so campaigns recorded before the
	// sampling policies existed keep their fingerprints.
	Policy string `json:"policy,omitempty"`
	// Rings is omitted when empty so campaigns recorded before the
	// modern-stack sweep existed keep their fingerprints.
	Rings []int `json:"rings,omitempty"`
}

// Fingerprint hashes the campaign identity of o (defaults applied), bound
// to the module version so a journal recorded by a different build of the
// model is refused rather than trusted.
func Fingerprint(o Options) (string, error) {
	o = o.withDefaults()
	return journal.Fingerprint(fingerprintInput{
		Packets: o.Packets,
		Reps:    o.Reps,
		Seed:    o.Seed,
		Rates:   o.Rates,
		Chaos:   o.Chaos,
		Policy:  o.Policy,
		Rings:   o.Rings,
	}, moduleVersion())
}

// moduleVersion identifies the build whose model semantics the journal's
// recorded cells embody.
func moduleVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		return bi.Main.Path + "@" + bi.Main.Version
	}
	return "unknown"
}

// cellRecord is one journal frame: the durable key and the final outcome
// of a completed measurement cell.
type cellRecord struct {
	Key core.CellKey     `json:"key"`
	Out core.CellOutcome `json:"out"`
}

// Campaign is the durable cell store of one experiment-driver invocation.
// It implements core.CellJournal: Record appends to the fsync'd on-disk
// write-ahead log before returning, Lookup serves the outcomes recovered
// at resume time (plus anything recorded since). Safe for concurrent use
// by the engine's workers.
type Campaign struct {
	j  *journal.Journal
	mu sync.Mutex
	m  map[core.CellKey]core.CellOutcome

	// Observer, when set, receives an EventCheckpoint after every durably
	// recorded cell (the monitoring service surfaces these as journal
	// progress). Assign it before the campaign starts running.
	Observer core.Observer

	// Resume diagnostics, for the CLI's status line: the number of cell
	// records recovered from the journal, and whether a torn tail frame was
	// truncated (TornBytes dropped).
	Replayed  int
	Torn      bool
	TornBytes int64
}

var _ core.CellJournal = (*Campaign)(nil)

// CreateCampaign starts a fresh campaign journal in dir (created if
// missing), stamped with o's fingerprint.
func CreateCampaign(dir string, o Options) (*Campaign, error) {
	return CreateCampaignFS(faultfs.OS, dir, o)
}

// CreateCampaignFS is CreateCampaign through an injectable filesystem —
// the -diskchaos seam.
func CreateCampaignFS(fsys faultfs.FS, dir string, o Options) (*Campaign, error) {
	fp, err := Fingerprint(o)
	if err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j, err := journal.CreateFS(fsys, filepath.Join(dir, JournalFile), fp)
	if err != nil {
		return nil, err
	}
	return &Campaign{j: j, m: map[core.CellKey]core.CellOutcome{}}, nil
}

// ResumeCampaign reopens the campaign journal in dir, verifies it was
// recorded under o's fingerprint (a *journal.MismatchError otherwise) and
// recovers every completed cell. A torn final frame — the crash-mid-append
// shape — is truncated and reported via the Torn fields, never an error.
// Duplicate records of one cell are last-write-wins.
func ResumeCampaign(dir string, o Options) (*Campaign, error) {
	return ResumeCampaignFS(faultfs.OS, dir, o)
}

// ResumeCampaignFS is ResumeCampaign through an injectable filesystem.
func ResumeCampaignFS(fsys faultfs.FS, dir string, o Options) (*Campaign, error) {
	fp, err := Fingerprint(o)
	if err != nil {
		return nil, err
	}
	j, rec, err := journal.ResumeFS(fsys, filepath.Join(dir, JournalFile), fp)
	if err != nil {
		return nil, err
	}
	c := &Campaign{
		j: j, m: make(map[core.CellKey]core.CellOutcome, len(rec.Records)),
		Torn: rec.Torn, TornBytes: rec.TornBytes,
	}
	for _, raw := range rec.Records {
		var cr cellRecord
		if err := json.Unmarshal(raw, &cr); err != nil {
			j.Close()
			return nil, fmt.Errorf("experiments: corrupt cell record in %s: %w", j.Path(), err)
		}
		c.m[cr.Key] = cr.Out
	}
	c.Replayed = len(c.m)
	return c, nil
}

// Lookup returns the recorded final outcome of a cell, if any.
func (c *Campaign) Lookup(k core.CellKey) (core.CellOutcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out, ok := c.m[k]
	return out, ok
}

// Record makes the outcome durable (fsync'd into the write-ahead log)
// before admitting it to the in-memory index.
func (c *Campaign) Record(k core.CellKey, out core.CellOutcome) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.j.Append(cellRecord{Key: k, Out: out}); err != nil {
		return err
	}
	c.m[k] = out
	if c.Observer != nil {
		c.Observer.Observe(core.Event{
			Kind: core.EventCheckpoint, Experiment: k.Experiment,
			System: k.System, Point: k.Point, Rep: k.Rep,
			Detail: fmt.Sprintf("cell %d durable", len(c.m)),
		})
	}
	return nil
}

// DecodeCellRecord decodes one campaign-journal frame payload into the
// durable cell key and final outcome. The monitoring service uses it to
// serve cells out of a journal it follows read-only.
func DecodeCellRecord(payload []byte) (core.CellKey, core.CellOutcome, error) {
	var cr cellRecord
	if err := json.Unmarshal(payload, &cr); err != nil {
		return core.CellKey{}, core.CellOutcome{}, err
	}
	return cr.Key, cr.Out, nil
}

// OnAppendRetry registers an observer of the journal's storage-fault
// pause-and-retry repairs (see journal.Journal.OnRetry): fn runs after a
// failed cell-record append has been truncated away, before the retry.
func (c *Campaign) OnAppendRetry(fn func(err error, attempt int)) { c.j.OnRetry(fn) }

// Len reports the number of distinct cells currently recorded.
func (c *Campaign) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Close flushes and closes the underlying journal file.
func (c *Campaign) Close() error { return c.j.Close() }
