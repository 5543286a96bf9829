package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/capture"
	"repro/internal/faults"
)

// TestChaosNilPlanMatchesParallel: under a plan that injects nothing the
// supervised sweep must be numerically identical to the unsupervised one
// — the chaos counters then only record one clean attempt per
// repetition. (MAD rejection cannot fire: it needs at least three
// repetitions.)
func TestChaosNilPlanMatchesParallel(t *testing.T) {
	cfgs := Sniffers()
	w := Workload{Packets: 2000, Seed: 5}
	rates := []float64{200, 800}
	reps := 2
	clean := Sweep(context.Background(), cfgs, rates, w, reps, Options{Workers: 2})
	chaos := Sweep(context.Background(), cfgs, rates, w, reps, Options{Workers: 2, Chaos: &faults.Plan{Seed: 1}})
	for si := range chaos {
		for pi := range chaos[si].Points {
			p := chaos[si].Points[pi]
			if p.Attempts != reps || p.Quarantined != 0 || p.Rejected != 0 || p.Degraded || p.FaultLog != "" {
				t.Fatalf("%s x=%g: nil-plan chaos counters dirty: %+v", chaos[si].System, p.X, p)
			}
			p.Attempts = 0
			if !reflect.DeepEqual(p, clean[si].Points[pi]) {
				t.Fatalf("%s x=%g: nil-plan point differs from the unsupervised sweep:\n%+v\nvs\n%+v",
					chaos[si].System, p.X, p, clean[si].Points[pi])
			}
		}
	}
}

// TestChaosEmptyPlanCellsMatchUnsupervised: under a plan that injects
// nothing, supervision accepts every repetition on its first attempt with
// statistics identical to the unsupervised run — so with three or more
// repetitions a supervised point can differ from a clean one only through
// MAD outlier rejection.
func TestChaosEmptyPlanCellsMatchUnsupervised(t *testing.T) {
	w := Workload{Packets: 2000, Seed: 5, TargetRate: 8e8}
	var cells []Cell
	var ids []CellID
	for _, cfg := range Sniffers() {
		for rep := 0; rep < 4; rep++ {
			cells = append(cells, Cell{Cfg: cfg, W: w})
			ids = append(ids, CellID{Point: 1, Rep: rep})
		}
	}
	clean, _ := Run(context.Background(), cells, ids, Options{Workers: 2})
	chaos, errs := Run(context.Background(), cells, ids, Options{Workers: 2, Chaos: &faults.Plan{Seed: 1}})
	for i, o := range chaos {
		if errs[i] != nil || !o.OK || o.Attempts != 1 || o.Degraded || o.Quarantined || o.Log != nil {
			t.Fatalf("%s rep %d: empty-plan cell not a clean first attempt: %+v (error %v)",
				cells[i].Cfg.Name, ids[i].Rep, o, errs[i])
		}
		if !reflect.DeepEqual(o.Stats, clean[i].Stats) {
			t.Fatalf("%s rep %d: supervised statistics differ from the unsupervised run",
				cells[i].Cfg.Name, ids[i].Rep)
		}
	}
}

// TestChaosDeterministic: a chaos sweep is a pure function of (plan seed,
// workload) — independent of worker count and repeatable bit for bit.
func TestChaosDeterministic(t *testing.T) {
	cfgs := Sniffers()
	w := Workload{Packets: 1500, Seed: 3}
	rates := []float64{300, 900}
	plan := faults.DefaultPlan(42)
	a := Sweep(context.Background(), cfgs, rates, w, 3, Options{Chaos: plan})
	b := Sweep(context.Background(), cfgs, rates, w, 3, Options{Workers: 4, Chaos: plan})
	c := Sweep(context.Background(), cfgs, rates, w, 3, Options{Workers: 4, Chaos: plan})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("chaos sweep differs between serial and 4 workers")
	}
	if !reflect.DeepEqual(b, c) {
		t.Fatal("chaos sweep differs between two identical runs")
	}
}

// TestChaosConvergesToCleanRates is the tentpole invariant: under the
// default fault mix, the accepted per-point rates converge to the clean
// run's (same workload seeds, faults on vs. off) within the rejection
// tolerance. Non-faulted repetitions replay the identical recorded train,
// so the only drift comes from repetitions the supervisor quarantined,
// rejected, or accepted as leg-degraded.
func TestChaosConvergesToCleanRates(t *testing.T) {
	cfgs := Sniffers()
	w := Workload{Packets: 2000, Seed: 7}
	rates := []float64{200, 600, 1000}
	reps := 4
	plan := faults.DefaultPlan(11)
	clean := Sweep(context.Background(), cfgs, rates, w, reps, Options{Workers: 4})
	chaos := Sweep(context.Background(), cfgs, rates, w, reps, Options{Workers: 4, Chaos: plan})

	attempts, quarantined := 0, 0
	for si := range chaos {
		for pi := range chaos[si].Points {
			cp, cl := chaos[si].Points[pi], clean[si].Points[pi]
			if cp.Attempts < reps {
				t.Fatalf("%s x=%g: %d attempts for %d reps — silently dropped work",
					chaos[si].System, cp.X, cp.Attempts, reps)
			}
			attempts += cp.Attempts
			quarantined += cp.Quarantined
			if cp.Quarantined == reps {
				if !cp.Degraded {
					t.Fatalf("%s x=%g: fully quarantined point not marked Degraded", chaos[si].System, cp.X)
				}
				continue // nothing accepted; no rate to compare
			}
			// Tolerance: the clean repetition spread, the MAD floor, and the
			// worst-case pull of an accepted leg-degraded repetition.
			tol := (cl.RateMax - cl.RateMin) + 0.5 + plan.LegLossRatio*100
			if diff := cp.Rate - cl.Rate; diff > tol || diff < -tol {
				t.Errorf("%s x=%g: chaos rate %.2f vs clean %.2f (tol %.2f)\nlog: %s",
					chaos[si].System, cp.X, cp.Rate, cl.Rate, tol, cp.FaultLog)
			}
		}
	}
	// The default mix must actually exercise the machinery.
	if attempts <= len(rates)*reps*len(cfgs) {
		t.Fatalf("default plan injected nothing: %d attempts for %d cells",
			attempts, len(rates)*reps*len(cfgs))
	}
	if quarantined == len(rates)*reps*len(cfgs) {
		t.Fatal("every repetition quarantined — plan too hostile for convergence test")
	}
}

// TestFaultRetryRecoversPanic: a cell whose run panics on the first
// attempt is retried by the supervisor and accepted on the second — the
// panic is contained as a failed attempt, not a crashed process.
func TestFaultRetryRecoversPanic(t *testing.T) {
	w := Workload{Packets: 1200, Seed: 4, TargetRate: 6e8}
	tries := 0
	cells := []Cell{{Cfg: Swan(), W: w, Wrap: func(src capture.Source) capture.Source {
		tries++
		if tries == 1 {
			return &panicSource{src: src, after: 5}
		}
		return src
	}}}
	outs, errs := Run(context.Background(), cells, []CellID{{Point: 1, Rep: 0}}, Options{Chaos: &faults.Plan{Seed: 1}})
	o := outs[0]
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if !o.OK || o.Quarantined {
		t.Fatalf("panicking cell not recovered: %+v", o)
	}
	if o.Attempts != 2 {
		t.Fatalf("want 2 attempts (panic, then clean), got %d", o.Attempts)
	}
	if o.BackoffNS <= 0 {
		t.Fatal("retry did not pay the simulated backoff")
	}
	if len(o.Log) == 0 || !strings.Contains(o.Log[0], "panicked") {
		t.Fatalf("panic not logged: %q", o.Log)
	}
	want := RunOnce(Swan(), w)
	if !reflect.DeepEqual(o.Stats, want) {
		t.Fatal("recovered run differs from a direct clean run")
	}
}

// TestChaosQuarantineAfterBudget: a sniffer that hangs on every attempt
// exhausts the retry budget and is quarantined; the sweep completes with
// the point marked Degraded instead of deadlocking or aborting.
func TestChaosQuarantineAfterBudget(t *testing.T) {
	plan := &faults.Plan{Seed: 1, PHang: 1}
	w := Workload{Packets: 1000, Seed: 2}
	outs, errs := Run(
		context.Background(), []Cell{{Cfg: Swan(), W: w}}, []CellID{{Point: 9, Rep: 0}}, Options{Chaos: plan})
	o := outs[0]
	if o.OK || !o.Quarantined || errs[0] != nil {
		t.Fatalf("always-hanging cell not quarantined: %+v (error %v)", o, errs[0])
	}
	if o.Attempts != 4 {
		t.Fatalf("want budget+1 = 4 attempts, got %d", o.Attempts)
	}
	if o.Stats.Generated != 0 {
		t.Fatalf("hung sniffer returned statistics: %+v", o.Stats)
	}

	// The dead-sniffer case at sweep level: the other three systems keep
	// measuring, the hung one's points are Degraded with zero rate.
	series := Sweep(
		context.Background(), []capture.Config{Swan(), Moorhen()}, []float64{400}, w, 2,
		Options{Workers: 2, Chaos: plan})
	for _, s := range series {
		p := s.Points[0]
		if !p.Degraded || p.Quarantined != 2 || p.Rate != 0 {
			t.Fatalf("%s: all-hang point = %+v", s.System, p)
		}
	}
}

// TestChaosDegradedLegBooksFaultLoss: a persistently degraded splitter leg
// is accepted after the retry budget with the withheld frames booked under
// fault-splitter, so packet conservation against the switch's ground truth
// still holds.
func TestChaosDegradedLegBooksFaultLoss(t *testing.T) {
	plan := &faults.Plan{Seed: 6, PLegLoss: 1, LegLossRatio: 0.05}
	w := Workload{Packets: 2000, Seed: 8, TargetRate: 4e8}
	outs, _ := Run(
		context.Background(), []Cell{{Cfg: Moorhen(), W: w}}, []CellID{{Point: 4, Rep: 1}},
		Options{Chaos: plan})
	o := outs[0]
	if !o.OK || !o.Degraded {
		t.Fatalf("lossy-leg cell not accepted as degraded: %+v", o)
	}
	booked := o.Stats.Ledger.Drops[capture.CauseFaultSplitter]
	if booked.Packets == 0 {
		t.Fatal("no frames booked under fault-splitter")
	}
	if err := o.Stats.CheckConservation(); err != nil {
		t.Fatalf("conservation broken on degraded leg: %v", err)
	}
	// Generated must be normalized back to the switch's count.
	clean := RunOnce(Moorhen(), w)
	if o.Stats.Generated != clean.Generated {
		t.Fatalf("degraded Generated %d != switch count %d", o.Stats.Generated, clean.Generated)
	}
}

// TestChaosLegLossDegradesEveryStack: on every capture stack a degraded
// splitter leg is accepted on the first attempt — no retry is spent on an
// environmental loss — with the withheld frames booked under
// fault-splitter and Generated normalized to the switch's count; the
// point is Degraded without a quarantine.
func TestChaosLegLossDegradesEveryStack(t *testing.T) {
	plan := &faults.Plan{Seed: 9, PLegLoss: 1, LegLossRatio: 0.05}
	w := Workload{Packets: 2000, Seed: 8, TargetRate: 2e8}
	for _, cfg := range Sniffers() {
		outs, errs := Run(context.Background(), []Cell{{Cfg: cfg, W: w}},
			[]CellID{{Point: 2, Rep: 0}}, Options{Chaos: plan})
		o := outs[0]
		if errs[0] != nil || !o.OK || !o.Degraded || o.Attempts != 1 {
			t.Fatalf("%s: lossy leg not accepted first time as degraded: %+v (error %v)", cfg.Name, o, errs[0])
		}
		if o.Stats.Ledger.Drops[capture.CauseFaultSplitter].Packets == 0 {
			t.Fatalf("%s: leg loss not booked under fault-splitter", cfg.Name)
		}
		if err := o.Stats.CheckConservation(); err != nil {
			t.Fatalf("%s: conservation broken: %v", cfg.Name, err)
		}
		if want := RunOnce(cfg, w).Generated; o.Stats.Generated != want {
			t.Fatalf("%s: Generated %d not normalized to %d", cfg.Name, o.Stats.Generated, want)
		}
		p := resolvePoint(cfg.Name, outs, true)
		if !p.Degraded || p.Quarantined != 0 || p.Rate == 0 {
			t.Fatalf("%s: lossy-leg point = %+v", cfg.Name, p)
		}
	}
}

// TestChaosFormat: the -chaos companion table renders the bookkeeping.
func TestChaosFormat(t *testing.T) {
	series := []Series{{System: "swan", Points: []Point{{
		X: 200, Attempts: 5, Quarantined: 1, Rejected: 1, Degraded: true,
		FaultLog: "rep0.0 swan:sniffer-hang",
	}}}}
	out := FormatChaos(series)
	for _, want := range []string{"swan", "DEGRADED", "sniffer-hang", "5\t1\t1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatChaos missing %q:\n%s", want, out)
		}
	}
}

// TestChaosStaleReadClearsOnRetry: a stale SNMP read fails validation on
// the first attempt and the retry's fresh read clears it; the accepted
// run is the clean run.
func TestChaosStaleReadClearsOnRetry(t *testing.T) {
	w := Workload{Packets: 1500, Seed: 3, TargetRate: 6e8}
	const point = 11
	var plan *faults.Plan
	for seed := uint64(1); seed < 200; seed++ {
		p := &faults.Plan{Seed: seed, PStale: 0.5}
		if p.Stale(point, 0, 0) && !p.Stale(point, 0, 1) {
			plan = p
			break
		}
	}
	if plan == nil {
		t.Fatal("no seed with a clearing stale read in 200 tries")
	}
	staleRetries := 0
	obs := ObserverFunc(func(ev Event) {
		if ev.Kind == EventRetry && strings.Contains(ev.Detail, "stale") {
			staleRetries++
		}
	})
	outs, errs := Run(context.Background(), []Cell{{Cfg: Swan(), W: w}},
		[]CellID{{Point: point, Rep: 0}}, Options{Chaos: plan, Observer: obs})
	o := outs[0]
	if errs[0] != nil || !o.OK || o.Quarantined || o.Attempts != 2 {
		t.Fatalf("stale read not cleared by one retry: %+v (error %v)", o, errs[0])
	}
	if log := strings.Join(o.Log, "\n"); !strings.Contains(log, "switch:snmp-stale") {
		t.Fatalf("stale read not logged:\n%s", log)
	}
	if staleRetries != 1 {
		t.Fatalf("%d stale retry events, want 1", staleRetries)
	}
	if got, want := o.Stats.CaptureRate(), RunOnce(Swan(), w).CaptureRate(); got != want {
		t.Fatalf("retried rate %.4f, clean rate %.4f", got, want)
	}
}

// TestChaosPersistentUnderrunQuarantinedBalanced: a generator that
// underruns on every attempt never validates, so the cell is quarantined
// after the full budget; the shortfall of its last attempt is booked under
// fault-generator, so even the quarantined statistics balance against the
// switch's count.
func TestChaosPersistentUnderrunQuarantinedBalanced(t *testing.T) {
	plan := &faults.Plan{Seed: 5, PUnderrun: 1, UnderrunFrac: 0.7}
	w := Workload{Packets: 1000, Seed: 2, TargetRate: 4e8}
	outs, errs := Run(context.Background(), []Cell{{Cfg: Moorhen(), W: w}},
		[]CellID{{Point: 3, Rep: 0}}, Options{Chaos: plan})
	o := outs[0]
	if errs[0] != nil || o.OK || !o.Quarantined || o.Attempts != 4 {
		t.Fatalf("persistent underrun not quarantined after 4 attempts: %+v (error %v)", o, errs[0])
	}
	if log := strings.Join(o.Log, "\n"); !strings.Contains(log, "gen:gen-underrun") {
		t.Fatalf("underrun not logged:\n%s", log)
	}
	if got := o.Stats.Ledger.Drops[capture.CauseFaultGenerator].Packets; got != 300 {
		t.Fatalf("fault-generator booked %d packets, want 300", got)
	}
	if o.Stats.Generated != 1000 {
		t.Fatalf("Generated = %d, want the switch's 1000", o.Stats.Generated)
	}
	if err := o.Stats.CheckConservation(); err != nil {
		t.Fatalf("quarantined underrun does not balance: %v", err)
	}
}

// TestChaosDeadSnifferDegradesPoint: a dead sniffer fails every attempt
// of every repetition — one EventSnifferDead each — so every repetition
// is quarantined and the point is marked Degraded with a zero rate
// instead of aborting the sweep.
func TestChaosDeadSnifferDegradesPoint(t *testing.T) {
	plan := &faults.Plan{Seed: 1, PDead: 1}
	w := Workload{Packets: 1000, Seed: 2}
	dead := 0
	obs := ObserverFunc(func(ev Event) {
		if ev.Kind == EventSnifferDead {
			dead++
		}
	})
	series := Sweep(context.Background(), []capture.Config{Swan()}, []float64{400}, w, 2,
		Options{Chaos: plan, Observer: obs})
	if dead != 8 {
		t.Fatalf("%d sniffer-dead events, want 2 reps × 4 attempts = 8", dead)
	}
	p := series[0].Points[0]
	if p.Quarantined != 2 || !p.Degraded || p.Rate != 0 {
		t.Fatalf("dead-sniffer point = %+v", p)
	}
}

// TestChaosMADRejectsOutlierRep: among accepted repetitions at
// 99/99/98/40 %, the supervised point rejects the 40 % one and logs it;
// the unsupervised point aggregates all four.
func TestChaosMADRejectsOutlierRep(t *testing.T) {
	var column []CellOutcome
	for _, captured := range []uint64{99, 99, 98, 40} {
		column = append(column, CellOutcome{
			Stats: capture.Stats{Generated: 100, AppCaptured: []uint64{captured}},
			OK:    true, Attempts: 1,
		})
	}
	p := resolvePoint("swan", column, true)
	if p.Rejected != 1 || !strings.Contains(p.FaultLog, "outlier-rejected") {
		t.Fatalf("supervised point = %+v, want one logged rejection", p)
	}
	if p.RateMin < 98 {
		t.Fatalf("rejected repetition still aggregated: min rate %.2f", p.RateMin)
	}
	p = resolvePoint("swan", column, false)
	if p.Rejected != 0 || p.FaultLog != "" || p.RateMin != 40 {
		t.Fatalf("unsupervised point = %+v, want all four aggregated", p)
	}
}
