// Fault supervision: what Run does when Options.Chaos is set. A real
// Figure 3.1 testbed misbehaves — counters read stale, the generator
// underruns, a sniffer hangs, the splitter degrades a leg — so every
// measurement cell is run under per-cycle validation with bounded retry
// (simulated-time backoff), quarantine of irrecoverably bad repetitions,
// thesis-style outlier rejection across the surviving repetitions, and
// graceful degradation: a dead sniffer's points are marked Degraded
// instead of aborting the sweep. Injected losses are booked into the
// drop-cause ledger under the fault-* causes, so the conservation check
// holds against the switch's ground truth.
//
// Supervision shares the journal replay, the record-then-emit step, the
// worker pool and the point observer with the unsupervised engine, so a
// chaos campaign is durable too: every final outcome — accepted or
// quarantined — is recorded as soon as it is known. Fault draws are keyed
// by (plan seed, point, system, rep, attempt), never by execution order,
// so a resumed chaos campaign reproduces the uninterrupted one bit for
// bit.
package core

import (
	"fmt"
	"strings"

	"repro/internal/capture"
	"repro/internal/faults"
	"repro/internal/stats"
)

const (
	// retryBudget is the number of retries per cell beyond the first
	// attempt.
	retryBudget = 3
	// backoffNS is the simulated control-host backoff before the first
	// retry; it doubles per further retry (rerunning a cycle in the real
	// testbed costs seconds, the backoff models the "wait and re-poll"
	// step without consuming wall-clock time).
	backoffNS = 250e6
	// madK is the outlier-rejection threshold: a surviving repetition is
	// rejected when its capturing rate deviates from the per-point median
	// by more than madK × MAD.
	madK = 3.5
	// madFloor is the absolute deviation (percentage points) below which a
	// repetition is never rejected, guarding the MAD ≈ 0 case of
	// near-identical repetitions.
	madFloor = 0.5
)

// cellFault is a validation failure of one attempt (distinct from a
// CellPanicError, which the pool produces).
type cellFault struct{ reason string }

func (e *cellFault) Error() string { return e.reason }

// injected is what the fault plan did to one attempt's replayed feed.
type injected struct {
	lossy *faults.LossySource
	trunc *faults.TruncatedSource
	stale bool
}

// supervise runs the pending cells under the fault plan in attempt waves
// until each is accepted or its retry budget is spent. A cell that cannot
// be measured is quarantined, never retried forever; a panicking cell is
// retried like any other failed attempt. On cancellation no new wave
// starts and unfinished cells stay unresolved, carrying ctx.Err().
func (e *engine) supervise(pending []int) {
	plan := e.o.Chaos
	logf := func(i int, format string, args ...any) {
		e.outs[i].Log = append(e.outs[i].Log, fmt.Sprintf(format, args...))
	}
	emit := func(kind EventKind, i, attempt int, detail string) {
		if e.o.Observer != nil {
			e.o.Observer.Observe(e.event(kind, i, attempt, detail))
		}
	}
	inj := make([]injected, len(e.cells))
	for attempt := 0; attempt <= retryBudget && len(pending) > 0 && e.ctx.Err() == nil; attempt++ {
		// Draw this attempt's faults: a hung, crashed or dead sniffer fails
		// fast (no run, no statistics); the rest run on feeds wrapped with
		// the attempt's injections.
		wave := append([]Cell(nil), e.cells...)
		var run []int
		for _, i := range pending {
			c, id := e.cells[i], e.ids[i]
			e.outs[i].Attempts++
			if attempt > 0 {
				e.outs[i].BackoffNS += backoffNS * float64(int(1)<<(attempt-1))
			}
			sf := plan.Sniffer(c.Cfg.Name, id.Point, id.Rep, attempt)
			switch {
			case sf.Dead:
				logf(i, "rep%d.%d %s:sniffer-dead", id.Rep, attempt, c.Cfg.Name)
				emit(EventSnifferDead, i, attempt, "sniffer dead for this attempt")
				continue
			case sf.Hang:
				logf(i, "rep%d.%d %s:sniffer-hang", id.Rep, attempt, c.Cfg.Name)
				emit(EventRetry, i, attempt, "sniffer hang: no statistics")
				continue
			case sf.Crash:
				logf(i, "rep%d.%d %s:sniffer-crash", id.Rep, attempt, c.Cfg.Name)
				emit(EventRetry, i, attempt, "sniffer crash: no statistics")
				continue
			}
			in := &inj[i]
			*in = injected{stale: plan.Stale(id.Point, id.Rep, attempt)}
			if in.stale {
				logf(i, "rep%d.%d switch:snmp-stale", id.Rep, attempt)
			}
			frac, stall := plan.Gen(id.Point, id.Rep, attempt)
			if frac > 0 && frac < 1 {
				if stall {
					logf(i, "rep%d.%d gen:gen-stall(%.2g)", id.Rep, attempt, frac)
				} else {
					logf(i, "rep%d.%d gen:gen-underrun(%.2g)", id.Rep, attempt, frac)
				}
			}
			if sf.LegLoss > 0 {
				logf(i, "rep%d.%d %s:splitter-leg-loss(%.2g)", id.Rep, attempt, c.Cfg.Name, sf.LegLoss)
			}
			legSeed := plan.LegSeed(c.Cfg.Name, id.Point, id.Rep)
			// The wrap runs in the worker; it writes only this cell's slot.
			wave[i].Wrap = func(src capture.Source) capture.Source {
				if c.Wrap != nil {
					src = c.Wrap(src)
				}
				if frac > 0 && frac < 1 {
					in.trunc = faults.NewTruncatedSource(src, int(float64(c.W.Packets)*frac))
					src = in.trunc
				}
				if sf.LegLoss > 0 {
					in.lossy = faults.NewLossySource(src, legSeed, sf.LegLoss)
					src = in.lossy
				}
				return src
			}
			// A failed attempt leaves its partial data behind, zero if it
			// never returned (a panic).
			e.outs[i].Stats = capture.Stats{}
			run = append(run, i)
		}

		// Validate in the worker while the cell's feed is still hot in the
		// shared cache; an accepted outcome is final, so it is recorded and
		// published right there.
		errs := e.pool(wave, run, func(i int, st *capture.Stats) error {
			in := &inj[i]
			// A degraded splitter leg is an environmental loss, not a
			// measurement error: book the withheld frames so the run
			// balances against the switch's ground truth.
			if in.lossy != nil && in.lossy.Lost > 0 {
				st.BookFaultLoss(capture.CauseFaultSplitter, in.lossy.Lost, in.lossy.LostBytes, in.lossy.LastAt)
			}
			e.outs[i].Stats = *st
			if err := validate(st, in, e.o.Feeds.Get(e.cells[i].W).Sent); err != nil {
				return err
			}
			e.outs[i].OK = true
			e.outs[i].Degraded = in.lossy != nil && in.lossy.Lost > 0
			// A failed append is not a failed attempt: the measurement
			// stands, the cell is not retried, and the error is returned.
			e.errs[i] = e.finish(i, "", attempt)
			return nil
		})
		for k, i := range run {
			err := errs[k]
			if err == nil || IsCancel(err) {
				// Accepted, or interrupted rather than faulted: an
				// interrupted cell stays unresolved.
				continue
			}
			logf(i, "rep%d.%d %s:retry: %v", e.ids[i].Rep, attempt, e.cells[i].Cfg.Name, err)
			emit(EventRetry, i, attempt, err.Error())
			// Book a generator shortfall so even the partial stats balance.
			if t := inj[i].trunc; t != nil && t.Cut > 0 {
				e.outs[i].Stats.BookFaultLoss(capture.CauseFaultGenerator, t.Cut, t.CutBytes, t.LastAt)
			}
		}

		next := pending[:0]
		for _, i := range pending {
			if !e.outs[i].OK {
				next = append(next, i)
			}
		}
		pending = next
	}

	// Quarantine is a final verdict: only pronounce (and journal) it when
	// the retry budget is truly exhausted, not when an interrupt cut the
	// budget short.
	cancelled := e.ctx.Err()
	for _, i := range pending {
		if cancelled != nil {
			e.errs[i] = cancelled
			continue
		}
		e.outs[i].Quarantined = true
		e.errs[i] = e.finish(i, "", retryBudget)
	}
}

// validate checks one attempt's statistics against the switch's ground
// truth (expected frames) and the fault plan's counter corruption.
func validate(st *capture.Stats, in *injected, expected uint64) error {
	if in.stale {
		return &cellFault{reason: "stale SNMP read: switch delta 0"}
	}
	if st.Generated != expected {
		return &cellFault{reason: fmt.Sprintf(
			"switch counted %d frames, sniffer was offered %d", expected, st.Generated)}
	}
	if err := st.CheckConservation(); err != nil {
		return &cellFault{reason: err.Error()}
	}
	return nil
}

// resolvePoint folds one point's repetitions into a plotted Point. An
// unsupervised point aggregates every repetition. A supervised one passes
// its accepted runs through the thesis-style outlier rejection (median
// absolute deviation on the capturing rate), aggregates the survivors
// exactly like a clean point, and records in the chaos counters what the
// supervisor had to do to get there.
func resolvePoint(system string, column []CellOutcome, supervised bool) Point {
	if !supervised {
		runs := make([]capture.Stats, len(column))
		for i, o := range column {
			runs[i] = o.Stats
		}
		return aggregatePoint(system, runs)
	}
	var accepted []CellOutcome
	var pt Point
	var log []string
	for _, o := range column {
		pt.Attempts += o.Attempts
		if o.Quarantined {
			pt.Quarantined++
		} else {
			accepted = append(accepted, o)
		}
		log = append(log, o.Log...)
	}

	rates := make([]float64, len(accepted))
	for i, o := range accepted {
		rates[i] = o.Stats.CaptureRate()
	}
	reject := stats.MADOutliers(rates, madK, madFloor)
	kept := make([]capture.Stats, 0, len(accepted))
	degraded := false
	for i, o := range accepted {
		if reject[i] {
			pt.Rejected++
			log = append(log, fmt.Sprintf("%s:outlier-rejected(%.2f%%)", system, rates[i]))
			continue
		}
		kept = append(kept, o.Stats)
		degraded = degraded || o.Degraded
	}

	agg := aggregatePoint(system, kept)
	agg.Attempts, agg.Quarantined, agg.Rejected = pt.Attempts, pt.Quarantined, pt.Rejected
	agg.Degraded = degraded || len(kept) == 0
	agg.FaultLog = strings.Join(log, "; ")
	return agg
}

// FormatChaos renders the supervisor's per-point bookkeeping — attempts,
// quarantined and outlier-rejected repetitions, degradation, fault log —
// as the `experiment -chaos` companion table of FormatTable.
func FormatChaos(series []Series) string {
	var out strings.Builder
	out.WriteString("# chaos: attempts / quarantined / rejected repetitions per point\n")
	out.WriteString("# x\tsystem\tattempts\tquar\trej\tdegraded\tfaults\n")
	for _, s := range series {
		for _, p := range s.Points {
			deg := "-"
			if p.Degraded {
				deg = "DEGRADED"
			}
			fl := p.FaultLog
			if fl == "" {
				fl = "-"
			}
			fmt.Fprintf(&out, "%.0f\t%s\t%d\t%d\t%d\t%s\t%s\n",
				p.X, s.System, p.Attempts, p.Quarantined, p.Rejected, deg, fl)
		}
	}
	return out.String()
}
