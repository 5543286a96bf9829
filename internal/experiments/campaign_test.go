package experiments

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/journal"
)

func campaignOpts() Options {
	return Options{Packets: 2000, Reps: 2, Seed: 1, Rates: []float64{300, 900}, Parallelism: 2}
}

// crashResume simulates a crash mid-campaign: cut the journal file in half
// (almost certainly mid-frame — the torn-tail shape) and reopen it.
func crashResume(t *testing.T, dir string, o Options) *Campaign {
	t.Helper()
	path := filepath.Join(dir, JournalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := ResumeCampaign(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCampaignResumeByteIdentical is the tentpole acceptance check at the
// experiments layer: a campaign that crashed mid-run (torn journal tail)
// and was resumed renders output byte-identical to an uninterrupted,
// unjournaled run — for a rate sweep, and for selfsim, whose bursty cells
// re-time the replayed train through Cell.Wrap under journal replay and
// chaos supervision alike.
func TestCampaignResumeByteIdentical(t *testing.T) {
	for _, id := range []string{"fig6.2-smp", "selfsim"} {
		e, err := Find(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, chaos := range []uint64{0, 7} {
			o := campaignOpts()
			o.Chaos = chaos
			clean := e.Run(o)

			dir := t.TempDir()
			c, err := CreateCampaign(dir, o)
			if err != nil {
				t.Fatal(err)
			}
			oj := o
			oj.Journal = c
			if got := e.Run(oj); got != clean {
				t.Fatalf("%s chaos=%d: journaled run differs from plain run", id, chaos)
			}
			recorded := c.Len()
			if recorded == 0 {
				t.Fatalf("%s: journaled run recorded no cells", id)
			}
			c.Close()

			rc := crashResume(t, dir, o)
			if !rc.Torn {
				t.Fatalf("%s: half-truncated journal not reported torn", id)
			}
			if rc.Replayed == 0 || rc.Replayed >= recorded {
				t.Fatalf("%s: crash recovery replayed %d of %d cells", id, rc.Replayed, recorded)
			}
			or := o
			or.Journal = rc
			if got := e.Run(or); got != clean {
				t.Fatalf("%s chaos=%d: resumed run not byte-identical to uninterrupted run", id, chaos)
			}
			// The resumed run must have re-recorded the lost cells.
			if rc.Len() != recorded {
				t.Fatalf("%s: resumed campaign holds %d cells, want %d", id, rc.Len(), recorded)
			}
			rc.Close()
		}
	}
}

// TestCampaignFingerprintMismatch: a journal recorded under different
// semantic options is refused with the typed error; presentation and
// scheduling knobs don't participate in the identity.
func TestCampaignFingerprintMismatch(t *testing.T) {
	o := campaignOpts()
	dir := t.TempDir()
	c, err := CreateCampaign(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	other := o
	other.Seed = 99
	_, err = ResumeCampaign(dir, other)
	var me *journal.MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("resume under different seed: want *journal.MismatchError, got %v", err)
	}

	// Parallelism/Why/Ctx/Journal are not part of the campaign identity.
	same := o
	same.Parallelism = 7
	same.Why = true
	rc, err := ResumeCampaign(dir, same)
	if err != nil {
		t.Fatalf("resume with different presentation knobs refused: %v", err)
	}
	rc.Close()
}

// TestCampaignResumeHeaderOnly: a campaign interrupted after Create wrote
// the header but before any cell completed must resume as a clean, empty
// campaign — zero replayed cells, nothing torn — and then run to the same
// byte-identical output as an uninterrupted campaign.
func TestCampaignResumeHeaderOnly(t *testing.T) {
	o := campaignOpts()
	dir := t.TempDir()
	c, err := CreateCampaign(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	rc, err := ResumeCampaign(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Torn || rc.TornBytes != 0 {
		t.Fatalf("header-only campaign reported torn: %+v", rc)
	}
	if rc.Replayed != 0 || rc.Len() != 0 {
		t.Fatalf("header-only campaign replayed %d cells (len %d), want 0", rc.Replayed, rc.Len())
	}

	e, err := Find("fig6.2-smp")
	if err != nil {
		t.Fatal(err)
	}
	clean := e.Run(o)
	or := o
	or.Journal = rc
	if got := e.Run(or); got != clean {
		t.Fatal("run resumed from a header-only journal differs from a plain run")
	}
	if rc.Len() == 0 {
		t.Fatal("resumed run recorded no cells")
	}
	rc.Close()
}

// TestCampaignDuplicateLastWins: recording one cell twice keeps the later
// outcome after a resume — the write-ahead log's last-write-wins contract.
func TestCampaignDuplicateLastWins(t *testing.T) {
	o := campaignOpts()
	dir := t.TempDir()
	c, err := CreateCampaign(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	k := core.CellKey{Experiment: "rates", Point: 300000, System: "swan", Rep: 1}
	if err := c.Record(k, core.CellOutcome{OK: true, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Record(k, core.CellOutcome{OK: true, Attempts: 3, Log: []string{"retry"}}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	rc, err := ResumeCampaign(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if rc.Len() != 1 {
		t.Fatalf("duplicate key counted twice: %d cells", rc.Len())
	}
	out, ok := rc.Lookup(k)
	if !ok || out.Attempts != 3 || len(out.Log) != 1 {
		t.Fatalf("last write did not win: %+v", out)
	}
}

// TestFingerprintSemanticFields: the identity tracks every semantic knob.
func TestFingerprintSemanticFields(t *testing.T) {
	base, err := Fingerprint(campaignOpts())
	if err != nil {
		t.Fatal(err)
	}
	again, _ := Fingerprint(campaignOpts())
	if base != again {
		t.Fatal("fingerprint not deterministic")
	}
	for name, mutate := range map[string]func(*Options){
		"packets": func(o *Options) { o.Packets = 4000 },
		"reps":    func(o *Options) { o.Reps = 3 },
		"seed":    func(o *Options) { o.Seed = 2 },
		"rates":   func(o *Options) { o.Rates = []float64{100} },
		"chaos":   func(o *Options) { o.Chaos = 1 },
		"policy":  func(o *Options) { o.Policy = "uniform:4" },
		"rings":   func(o *Options) { o.Rings = []int{8} },
	} {
		o := campaignOpts()
		mutate(&o)
		fp, _ := Fingerprint(o)
		if fp == base {
			t.Errorf("fingerprint ignores %s", name)
		}
	}
}

// TestFingerprintPolicyBackwardCompatible: with no policy set, the
// fingerprint input marshals exactly as it did before the Policy field
// existed, so journals recorded by older builds of the same version keep
// resuming.
func TestFingerprintPolicyBackwardCompatible(t *testing.T) {
	in := fingerprintInput{Packets: 2000, Reps: 2, Seed: 1, Rates: []float64{300}, Chaos: 0}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"packets":2000,"reps":2,"seed":1,"rates":[300],"chaos":0}`
	if string(b) != want {
		t.Fatalf("empty-policy fingerprint input = %s, want %s", b, want)
	}
}

// TestFingerprintRingsBackwardCompatible: with no -rings set, the
// fingerprint input still marshals exactly as before the Rings field
// existed (including with a policy set), so pre-modern-sweep journals
// keep resuming.
func TestFingerprintRingsBackwardCompatible(t *testing.T) {
	in := fingerprintInput{Packets: 2000, Reps: 2, Seed: 1, Rates: []float64{300}, Chaos: 0, Policy: "uniform:4"}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"packets":2000,"reps":2,"seed":1,"rates":[300],"chaos":0,"policy":"uniform:4"}`
	if string(b) != want {
		t.Fatalf("empty-rings fingerprint input = %s, want %s", b, want)
	}
}
