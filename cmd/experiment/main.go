// experiment runs the reproduced tables and figures of the thesis's
// evaluation and prints the plotted series as tab-separated tables.
//
//	experiment -list
//	experiment -id fig6.3-smp -packets 100000 -reps 3
//	experiment -id fig6.3-smp -parallel -1   # all CPUs, identical output
//	experiment -all -packets 40000 > results.txt
//	experiment -id fig6.2-smp -chaos 42      # fault-injected, supervised
//	experiment -all -journal run1            # record a durable campaign
//	experiment -all -journal run1 -resume    # resume after a crash/SIGTERM
//	experiment -all -journal d -coordinator :0 -workers 3 -netchaos 7 -diskchaos 9
//	                                         # distributed run under fault injection
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/faultfs"
	"repro/internal/journal"
	"repro/internal/monitor"
	"repro/internal/netchaos"
)

// Exit codes (documented in -h):
//
//	0  success
//	1  runtime failure (unknown experiment id, output write error)
//	2  usage error (bad flags or arguments)
//	3  interrupted (SIGINT/SIGTERM); the campaign journal is usable
const (
	exitOK          = 0
	exitRuntime     = 1
	exitUsage       = 2
	exitInterrupted = 3
)

// usageError marks failures that are the caller's fault (exit code 2).
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func main() {
	// First SIGINT/SIGTERM cancels the context: the worker pools drain,
	// the journal is flushed, and run returns exit code 3. A second signal
	// kills the process the hard way (signal.NotifyContext unregisters on
	// stop), which is the escape hatch from a stuck run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole program behind a single exit point: every output
// writer is flushed by defer before the exit code reaches main's
// os.Exit, so no table is ever truncated by an early error path.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list       = fs.Bool("list", false, "list all experiment ids")
		id         = fs.String("id", "", "experiment id to run")
		all        = fs.Bool("all", false, "run every experiment")
		packets    = fs.Int("packets", 40_000, "packets per run (thesis: 1000000)")
		reps       = fs.Int("reps", 1, "repetitions per point (thesis: 7)")
		seed       = fs.Uint64("seed", 1, "base random seed")
		rates      = fs.String("rates", "", "comma-separated data rates in Mbit/s (default 50..950)")
		parallel   = fs.Int("parallel", 0, "worker goroutines per sweep: 0 = serial, -1 = one per CPU (output is identical for any value)")
		gpDir      = fs.String("gp", "", "also write <id>.dat and a gnuplot script <id>.gp into this directory")
		why        = fs.Bool("why", false, "append the per-point drop-cause table to each experiment")
		jsonOut    = fs.Bool("json", false, "emit NDJSON run records instead of tables (experiments without a series form are skipped)")
		chaos      = fs.Uint64("chaos", 0, "seed of the fault-injection plan: run sweeps under the resilient supervisor (validation, retry, quarantine, outlier rejection) and append the chaos bookkeeping; 0 = off")
		policy     = fs.String("policy", "", "sampling/load-shedding policy for every capturing application: none, uniform:N, flow:N, adaptive[:T] (shed packets are booked under shed-* ledger causes, not lost; part of the campaign fingerprint)")
		rings      = fs.String("rings", "", "comma-separated RX ring counts for the modern-stack sweep ext-modern (default 2,4; part of the campaign fingerprint)")
		journalDir = fs.String("journal", "", "record completed measurement cells in a crash-safe campaign journal in this directory")
		resume     = fs.Bool("resume", false, "resume the campaign journal in -journal: replay recorded cells, measure the rest (output is byte-identical to an uninterrupted run)")
		serveAddr  = fs.String("serve", "", "serve the live monitoring API (campaign listing, SSE event stream, Prometheus /metrics) on this address while the campaign runs; with no run mode it serves standalone over the -journal directory until interrupted")
		coordAddr  = fs.String("coordinator", "", "run the campaign as a dispatch coordinator: serve the monitoring API plus the lease protocol on this address and shard the campaign's cells across connected -worker processes (requires -journal and -all/-id; the merged result is byte-identical to an undistributed run)")
		workersN   = fs.Int("workers", 0, "with -coordinator: also start this many in-process workers (a self-contained distributed run, used by CI)")
		workerAddr = fs.String("worker", "", "run as a dispatch worker against the coordinator at this address: lease cells, measure them, report back; exits 0 when the campaign completes, 2 on a campaign-fingerprint mismatch")
		netchaosS  = fs.Uint64("netchaos", 0, "seed of the network fault-injection plan: inject latency, drops, partitions, resets, and corrupted responses into the coordinator/worker protocol (requires -coordinator or -worker; the merged result stays byte-identical — chaos only delays and re-dispatches work); 0 = off")
		diskchaosS = fs.Uint64("diskchaos", 0, "seed of the storage fault-injection plan: inject ENOSPC, EIO, short writes, and fsync failures into the campaign journal's filesystem (requires -journal; appends pause, repair the tail, and retry, so no completion is lost); 0 = off")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file (written atomically: temp file + rename)")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile (after a final GC) to this file on exit, written atomically")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage of experiment:")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "\nExit codes:")
		fmt.Fprintln(stderr, "  0  success")
		fmt.Fprintln(stderr, "  1  runtime failure (unknown experiment id, output write error)")
		fmt.Fprintln(stderr, "  2  usage error (bad flags or arguments)")
		fmt.Fprintln(stderr, "  3  interrupted by SIGINT/SIGTERM; the -journal campaign is usable with -resume")
		fmt.Fprintln(stderr, "\nA -serve process keeps serving after the run completes and exits 3 on the first signal.")
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	// Buffer stdout: experiments emit many small writes, and routing them
	// through one deferred flush is what makes the single-exit-point
	// design matter.
	out := bufio.NewWriter(stdout)
	defer out.Flush()

	// Profiling brackets everything below, including error paths: the
	// deferred stop/write runs on every exit, and both artifacts appear
	// atomically (like the -gp outputs) so a watcher never sees a torn file.
	if *cpuprofile != "" {
		stopProf, err := startCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "experiment:", err)
			return exitRuntime
		}
		defer stopProf()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			if err := writeHeapProfile(path); err != nil {
				fmt.Fprintln(stderr, "experiment:", err)
			}
		}()
	}

	o := experiments.Options{
		Packets: *packets, Reps: *reps, Seed: *seed,
		Parallelism: *parallel, Why: *why, Chaos: *chaos, Ctx: ctx,
	}
	if *rates != "" {
		for _, f := range strings.Split(*rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				fmt.Fprintf(stderr, "experiment: bad rate %q (rates must be positive, finite Mbit/s values)\n", strings.TrimSpace(f))
				return exitUsage
			}
			o.Rates = append(o.Rates, v)
		}
	}
	if *rings != "" {
		for _, f := range strings.Split(*rings, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v <= 0 {
				fmt.Fprintf(stderr, "experiment: bad ring count %q (ring counts must be positive integers)\n", strings.TrimSpace(f))
				return exitUsage
			}
			o.Rings = append(o.Rings, v)
		}
	}
	if *policy != "" {
		spec, err := capture.ParsePolicy(*policy)
		if err != nil {
			fmt.Fprintln(stderr, "experiment:", err)
			return exitUsage
		}
		if spec.Enabled() {
			// Canonical form, so "adaptive:0.5" and "adaptive" fingerprint
			// the same campaign.
			o.Policy = spec.String()
		}
	}
	if *resume && *journalDir == "" {
		fmt.Fprintln(stderr, "experiment: -resume requires -journal <dir>")
		fs.Usage()
		return exitUsage
	}
	if *netchaosS != 0 && *workerAddr == "" && *coordAddr == "" {
		fmt.Fprintln(stderr, "experiment: -netchaos faults the dispatch protocol; it requires -coordinator or -worker")
		fs.Usage()
		return exitUsage
	}
	if *diskchaosS != 0 && *journalDir == "" {
		fmt.Fprintln(stderr, "experiment: -diskchaos faults the campaign journal; it requires -journal <dir>")
		fs.Usage()
		return exitUsage
	}

	// Storage chaos: the campaign journal (and the coordinator's lease
	// WAL) run on a fault-injecting filesystem. The journal's
	// truncate-repair-retry append absorbs every planned fault, so the
	// recorded cells — and therefore the output — are unaffected.
	var fsys faultfs.FS = faultfs.OS
	var ffs *faultfs.FaultFS
	if *diskchaosS != 0 {
		ffs = faultfs.New(faultfs.OS)
		ffs.Plan = faultfs.DefaultPlan(*diskchaosS)
		fsys = ffs
	}

	// -worker is a whole program of its own: no run mode, no journal, no
	// monitor — just the lease-measure-complete loop against the
	// coordinator, whose options the worker's must match exactly.
	if *workerAddr != "" {
		var conflict string
		switch {
		case *list || *all || *id != "":
			conflict = "-worker is exclusive with -list/-all/-id (the coordinator picks the work)"
		case *journalDir != "":
			conflict = "-worker records nothing locally; the coordinator owns the -journal"
		case *serveAddr != "" || *coordAddr != "":
			conflict = "-worker cannot also serve (-serve) or coordinate (-coordinator)"
		case *jsonOut || *gpDir != "" || *why:
			conflict = "-worker produces no output; -json/-gp/-why belong on the coordinator"
		case *chaos != 0:
			conflict = "-chaos campaigns cannot be distributed (fault plans are process-local)"
		}
		if conflict != "" {
			fmt.Fprintln(stderr, "experiment:", conflict)
			fs.Usage()
			return exitUsage
		}
		return runWorker(ctx, stderr, *workerAddr, o, *netchaosS)
	}

	coordinating := *coordAddr != ""
	var coord *dispatch.Coordinator
	if coordinating {
		var conflict string
		switch {
		case *journalDir == "":
			conflict = "-coordinator requires -journal <dir> (the lease table and results must be durable)"
		case !*all && *id == "":
			conflict = "-coordinator requires a run mode (-all or -id)"
		case *chaos != 0:
			conflict = "-chaos campaigns cannot be distributed (fault plans are process-local)"
		case *serveAddr != "":
			conflict = "-coordinator already serves the monitoring API on its own address; drop -serve"
		}
		if conflict != "" {
			fmt.Fprintln(stderr, "experiment:", conflict)
			fs.Usage()
			return exitUsage
		}
		fp, err := experiments.Fingerprint(o)
		if err != nil {
			fmt.Fprintln(stderr, "experiment:", err)
			return exitRuntime
		}
		coord = dispatch.New(campaignID(*journalDir), fp)
		coord.LocalWorkers = *parallel
		coord.FS = fsys
	}
	if *workersN != 0 && !coordinating {
		fmt.Fprintln(stderr, "experiment: -workers requires -coordinator")
		fs.Usage()
		return exitUsage
	}
	if *workersN < 0 {
		fmt.Fprintln(stderr, "experiment: -workers must not be negative")
		fs.Usage()
		return exitUsage
	}

	// -serve stands the monitoring service up before any measurement
	// starts, so a dashboard connected from the first cell misses nothing.
	// The hub doubles as the engines' Observer: with it attached the run
	// publishes its live event feed, and the feed never changes a result
	// (bounded rings drop on a stalled consumer; publishing never blocks).
	var hub *monitor.Hub
	var httpSrv *http.Server
	var baseURL string // coordinator's own URL, for in-process workers
	var chaosListener *netchaos.Listener
	serveOn := *serveAddr
	if coordinating {
		serveOn = *coordAddr
	}
	if serveOn != "" {
		hub = monitor.NewHub()
		reg := monitor.NewRegistry()
		reg.Attach(hub)
		if *journalDir != "" {
			// Read-only discovery: the journal is also browsable after the
			// run (or from a standalone -serve with no run mode at all).
			reg.AddJournalDir(campaignID(*journalDir), *journalDir)
		}
		rawLn, err := net.Listen("tcp", serveOn)
		if err != nil {
			fmt.Fprintln(stderr, "experiment:", err)
			return exitRuntime
		}
		ln := net.Listener(rawLn)
		handler := monitor.NewServer(hub, reg).Handler()
		if coord != nil {
			// The lease protocol rides the same mux as the monitoring API:
			// specific dispatch routes win, everything else falls through.
			mux := http.NewServeMux()
			coord.Register(mux)
			mux.Handle("/", handler)
			handler = mux
			coord.Observer = hub
		}
		if *netchaosS != 0 && coordinating {
			// Accept-side chaos: a drawn fraction of inbound protocol
			// connections are reset before the server ever sees them.
			nl := &netchaos.Listener{
				Listener: ln, Plan: netchaos.DefaultPlan(*netchaosS),
				OnFault: func(c netchaos.Class, detail string) {
					hub.Observe(core.Event{Kind: core.EventChaos, Campaign: campaign(*journalDir),
						Fault: "net-" + c.String(), Detail: detail})
				},
			}
			chaosListener = nl
			ln = nl
		}
		// ReadHeaderTimeout bounds a half-open or slow-loris client's grip
		// on a connection; SSE streams are unaffected (it only covers
		// request headers).
		httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
		go httpSrv.Serve(ln)
		defer closeServer(httpSrv)
		baseURL = "http://" + ln.Addr().String()
		if coordinating {
			fmt.Fprintf(stderr, "experiment: coordinating at %s\n", baseURL)
		} else {
			fmt.Fprintf(stderr, "experiment: monitoring at %s\n", baseURL)
		}
		o.Observer = hub
	}

	// Chaos observability: every injected storage fault becomes an
	// EventChaos on the bus (when one exists) and a tally in the final
	// summary; journal repairs are counted separately.
	var journalRepairs atomic.Uint64
	if ffs != nil {
		h := hub
		cname := campaign(*journalDir)
		ffs.OnFault = func(op faultfs.Op, path string, err error) {
			if h != nil {
				h.Observe(core.Event{Kind: core.EventChaos, Campaign: cname,
					Fault:  "fs-" + op.String(),
					Detail: fmt.Sprintf("%s %s: %v", op, filepath.Base(path), err)})
			}
		}
	}

	mode := *list || *all || *id != ""
	if *journalDir != "" && (*all || *id != "") {
		c, err := openCampaign(stderr, fsys, *journalDir, *resume, o)
		if err != nil {
			fmt.Fprintln(stderr, "experiment:", err)
			return exitRuntime
		}
		defer c.Close()
		if ffs != nil {
			c.OnAppendRetry(func(err error, attempt int) { journalRepairs.Add(1) })
		}
		if hub != nil {
			// Checkpoint events (one per durably recorded cell) join the feed.
			c.Observer = hub
		}
		o.Journal = c
		if coord != nil {
			coord.Journal = c
			// The lease table shares the journal directory and the WAL
			// format: a -resume'd coordinator replays it and keeps each
			// cell's dispatch-attempt count.
			if err := coord.OpenWAL(*journalDir, *resume); err != nil {
				fmt.Fprintln(stderr, "experiment:", err)
				return exitRuntime
			}
			defer coord.Close()
			o.Executor = coord
		}
	}

	// The in-process worker pool: a self-contained distributed run over
	// loopback HTTP — same protocol, same failure surface, no extra
	// processes to babysit (CI's favorite shape). External -worker
	// processes can join alongside at any time.
	var workerWG sync.WaitGroup
	var chaosTransports []*netchaos.Transport
	if coord != nil && *workersN > 0 {
		for i := 1; i <= *workersN; i++ {
			wid := fmt.Sprintf("local-%d", i)
			w, tr := newWorker(wid, baseURL, o, *netchaosS, func(c netchaos.Class, detail string) {
				hub.Observe(core.Event{Kind: core.EventChaos,
					Campaign: campaign(*journalDir), Worker: wid,
					Fault: "net-" + c.String(), Detail: detail})
			})
			if tr != nil {
				chaosTransports = append(chaosTransports, tr)
			}
			workerWG.Add(1)
			go func() {
				defer workerWG.Done()
				if err := w.Run(ctx); err != nil && ctx.Err() == nil {
					fmt.Fprintf(stderr, "experiment: worker %s: %v\n", w.ID, err)
				}
			}()
		}
	}

	var err error
	switch {
	case mode:
		if hub != nil && (*all || *id != "") {
			// Campaign bracket events come from the CLI layer: the engines
			// don't know where one driver invocation begins and ends.
			fp, fpErr := experiments.Fingerprint(o)
			if fpErr != nil {
				fp = ""
			}
			hub.Observe(core.Event{Kind: core.EventCampaignStart, Campaign: campaign(*journalDir), Detail: fp})
		}
		err = runMode(ctx, out, o, *list, *all, *id, *jsonOut, *gpDir)
		if hub != nil && (*all || *id != "") && err == nil && ctx.Err() == nil {
			hub.Observe(core.Event{Kind: core.EventCampaignFinish, Campaign: campaign(*journalDir)})
		}
	case httpSrv == nil:
		err = &usageError{}
	}
	if coord != nil {
		// The campaign is over (or dead): tell the workers — they get the
		// gone status on their next lease request or heartbeat and exit 0
		// — and wait for the in-process pool. A finished campaign then
		// drains: the listener stays up until every worker still in touch
		// has been told, or one lease TTL has passed.
		coord.Finish()
		workerWG.Wait()
		if ctx.Err() == nil {
			coord.Drain()
		}
		st := coord.Stats()
		if st.Granted > 0 {
			fmt.Fprintf(stderr, "experiment: dispatch: %d leases granted, %d expired, %d straggler re-dispatches, %d duplicate completions, %d cells run locally\n",
				st.Granted, st.Expired, st.Redispatched, st.Duplicates, st.LocalCells)
		}
	}
	if *netchaosS != 0 || *diskchaosS != 0 {
		var netFaults uint64
		for _, tr := range chaosTransports {
			netFaults += tr.Injected()
		}
		if chaosListener != nil {
			netFaults += chaosListener.Injected()
		}
		var fsFaults uint64
		if ffs != nil {
			fsFaults = ffs.Injected()
		}
		fmt.Fprintf(stderr, "experiment: chaos: %d network faults injected, %d storage faults injected, %d journal appends repaired and retried\n",
			netFaults, fsFaults, journalRepairs.Load())
	}
	if ctx.Err() != nil {
		// The interrupt wins over any secondary error: pools have drained,
		// the journal holds every completed cell, partial output was
		// discarded.
		if *journalDir != "" {
			fmt.Fprintf(stderr, "experiment: interrupted; campaign journal %s is usable — re-run with -resume\n", *journalDir)
		} else {
			fmt.Fprintln(stderr, "experiment: interrupted")
		}
		return exitInterrupted
	}
	if err != nil {
		if ue, ok := err.(*usageError); ok {
			if ue.msg != "" {
				fmt.Fprintln(stderr, "experiment:", ue.msg)
			}
			fs.Usage()
			return exitUsage
		}
		fmt.Fprintln(stderr, "experiment:", err)
		return exitRuntime
	}
	if httpSrv != nil && !coordinating {
		// Flush the tables now — the run is done, only the monitor keeps
		// the process alive — then serve until the first signal (exit 3,
		// like any other interrupted wait). A coordinator instead exits
		// with its campaign: its listener exists for the workers.
		out.Flush()
		if mode {
			fmt.Fprintln(stderr, "experiment: run complete; still serving — interrupt (SIGINT/SIGTERM) to exit")
		} else {
			fmt.Fprintln(stderr, "experiment: serving standalone — interrupt (SIGINT/SIGTERM) to exit")
		}
		<-ctx.Done()
		fmt.Fprintln(stderr, "experiment: interrupted")
		return exitInterrupted
	}
	return exitOK
}

// campaign is the monitoring name of this driver invocation: the journal
// directory's base name when one is recorded, "live" otherwise.
func campaign(journalDir string) string {
	if journalDir == "" {
		return "live"
	}
	return campaignID(journalDir)
}

// campaignID names a journal directory's campaign after its base name.
func campaignID(dir string) string {
	return filepath.Base(filepath.Clean(dir))
}

// closeServer drains the monitoring listener: a short graceful window for
// in-flight API requests, then a hard close for SSE streams, which only
// end when their client hangs up.
func closeServer(s *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if s.Shutdown(ctx) != nil {
		s.Close()
	}
}

// openCampaign creates or resumes the on-disk campaign journal and reports
// what a resume recovered. fsys is the (possibly fault-injecting)
// filesystem the journal lives on.
func openCampaign(stderr io.Writer, fsys faultfs.FS, dir string, resume bool, o experiments.Options) (*experiments.Campaign, error) {
	if !resume {
		return experiments.CreateCampaignFS(fsys, dir, o)
	}
	c, err := experiments.ResumeCampaignFS(fsys, dir, o)
	if err != nil {
		return nil, err
	}
	if c.Torn {
		fmt.Fprintf(stderr, "experiment: journal had a torn tail frame (crash mid-append); truncated %d bytes\n", c.TornBytes)
	}
	fmt.Fprintf(stderr, "experiment: resuming campaign with %d recorded cells\n", c.Replayed)
	return c, nil
}

// newWorker builds a dispatch worker for the coordinator at base. The
// worker reads only the semantic fields of o and its Parallelism. With a
// -netchaos seed the worker talks through a chaos transport of its own,
// whose Peer salts the draws with the worker's ID so that workers see
// independent fault schedules from one seed; onFault reports each
// injected fault, and the transport is returned for its fault count.
func newWorker(id, base string, o experiments.Options, netchaosSeed uint64, onFault func(netchaos.Class, string)) (*dispatch.Worker, *netchaos.Transport) {
	w := &dispatch.Worker{ID: id, BaseURL: base, Options: o}
	if netchaosSeed == 0 {
		return w, nil
	}
	tr := &netchaos.Transport{Plan: netchaos.DefaultPlan(netchaosSeed), Peer: id, OnFault: onFault}
	w.Client = &http.Client{Timeout: dispatch.DefaultClientTimeout, Transport: tr}
	return w, tr
}

// runWorker is the whole -worker mode: join the coordinator, serve
// leases until the campaign completes. Exit codes follow the usual
// contract — a campaign-fingerprint mismatch is a usage error (2): the
// worker was started with flags that describe a different campaign.
func runWorker(ctx context.Context, stderr io.Writer, addr string, o experiments.Options, netchaosSeed uint64) int {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	w, tr := newWorker(fmt.Sprintf("%s-%d", host, os.Getpid()), base, o, netchaosSeed,
		func(c netchaos.Class, detail string) {
			fmt.Fprintf(stderr, "experiment: chaos: %s injected: %s\n", c, detail)
		})
	w.Log = func(format string, args ...any) {
		fmt.Fprintf(stderr, "experiment: "+format+"\n", args...)
	}
	if tr != nil {
		defer func() {
			fmt.Fprintf(stderr, "experiment: chaos: %d network faults injected\n", tr.Injected())
		}()
	}
	err := w.Run(ctx)
	switch {
	case err == nil:
		return exitOK
	case ctx.Err() != nil:
		fmt.Fprintln(stderr, "experiment: interrupted")
		return exitInterrupted
	default:
		fmt.Fprintln(stderr, "experiment:", err)
		if _, ok := err.(*dispatch.FingerprintMismatchError); ok {
			return exitUsage
		}
		return exitRuntime
	}
}

// runMode selects and executes the requested mode; all failures come
// back as errors so run keeps the single exit point.
func runMode(ctx context.Context, out io.Writer, o experiments.Options, list, all bool, id string, jsonOut bool, gpDir string) error {
	switch {
	case list:
		for _, e := range experiments.All() {
			fmt.Fprintf(out, "%-14s %-18s %s\n", e.ID, e.Paper, e.Title)
		}
		return nil
	case all:
		for _, e := range experiments.All() {
			if ctx.Err() != nil {
				return nil
			}
			if err := runOne(ctx, out, e, o, jsonOut, gpDir, true); err != nil {
				return err
			}
		}
		return nil
	case id != "":
		e, err := experiments.Find(id)
		if err != nil {
			return err
		}
		return runOne(ctx, out, e, o, jsonOut, gpDir, false)
	default:
		return &usageError{}
	}
}

// runOne executes one experiment in the requested output form. In -all
// mode (skipMissing), experiments without a series form are skipped for
// -json instead of failing. An interrupted experiment emits no table:
// a partial table would differ from a clean run's, and the whole point
// of the journal is that the re-run is byte-identical. (-json streams,
// so an interrupt there simply stops the record stream mid-way.)
func runOne(ctx context.Context, out io.Writer, e experiments.Experiment, o experiments.Options, jsonOut bool, gpDir string, skipMissing bool) error {
	if jsonOut && e.Series == nil {
		if skipMissing {
			return nil
		}
		return fmt.Errorf("%s has no structured series form", e.ID)
	}
	// Experiment bracket events come from here — the engines only know
	// about cells and points, not experiment boundaries.
	emit := func(kind core.EventKind) {
		if o.Observer != nil {
			o.Observer.Observe(core.Event{Kind: kind, Experiment: e.ID})
		}
	}
	emit(core.EventExperimentStart)
	if jsonOut {
		if err := writeJSON(ctx, out, e, o); err != nil {
			return err
		}
		if ctx.Err() == nil {
			emit(core.EventExperimentFinish)
		}
		return nil
	}
	// Run before printing the header: an interrupted experiment must not
	// leave a header with a truncated table behind.
	text := e.Run(o)
	if ctx.Err() != nil {
		return nil
	}
	emit(core.EventExperimentFinish)
	fmt.Fprintf(out, "==== %s (%s): %s ====\n", e.ID, e.Paper, e.Title)
	fmt.Fprintln(out, text)
	return writeGnuplot(gpDir, e, text)
}

// writeJSON streams the experiment's measurement points as NDJSON, one
// record per (x, system) point, encoded and flushed the moment the
// engine finalizes the point. The rows ride the same EventPoint feed the
// monitoring bus publishes, so they arrive in the canonical x-major
// layout order — deterministic for any -parallel value, and identical to
// what an SSE subscriber of the same run sees. (The retired buffered
// writer emitted system-major rows; the record set is unchanged, only
// the order moved.)
func writeJSON(ctx context.Context, out io.Writer, e experiments.Experiment, o experiments.Options) error {
	enc := json.NewEncoder(out)
	var mu sync.Mutex
	var werr error
	o.Observer = core.MultiObserver(o.Observer, core.ObserverFunc(func(ev core.Event) {
		if ev.Kind != core.EventPoint || ev.Experiment != e.ID || ev.Agg == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if werr != nil {
			return
		}
		if werr = enc.Encode(experiments.PointRecord(e.ID, *ev.Agg)); werr != nil {
			return
		}
		if f, ok := out.(interface{ Flush() error }); ok {
			werr = f.Flush()
		}
	}))
	e.Series(o)
	if ctx.Err() != nil {
		return nil
	}
	return werr
}

// writeGnuplot stores the experiment output as <id>.dat and, for the
// thesis-style rate tables (a "# x<TAB>name:rate%..." header), a matching
// linespoints plot script — the format the thesis's own plots use. Both
// artifacts are written atomically (temp file + rename), so a concurrent
// plot run or a crash never sees a half-written file.
func writeGnuplot(dir string, e experiments.Experiment, out string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dat := filepath.Join(dir, e.ID+".dat")
	if err := journal.WriteFileAtomic(dat, []byte(out), 0o644); err != nil {
		return err
	}
	lines := strings.Split(out, "\n")
	var header string
	for _, l := range lines {
		if strings.HasPrefix(l, "# x\t") {
			header = l
			break
		}
	}
	if header == "" {
		return nil // not a rate table; the .dat alone is useful
	}
	cols := strings.Split(strings.TrimPrefix(header, "# "), "\t")
	var plots []string
	for i, c := range cols[1:] {
		name, kind, ok := strings.Cut(c, ":")
		if !ok {
			continue
		}
		axis := "x1y1"
		width := 2
		if strings.HasPrefix(kind, "cpu") {
			axis = "x1y2"
			width = 1
		}
		plots = append(plots, fmt.Sprintf(
			"  %q using 1:%d with linespoints lw %d axes %s title %q",
			e.ID+".dat", i+2, width, axis, name+" "+kind))
	}
	script := fmt.Sprintf(`set title %q
set xlabel "Datarate [Mbit/s]"
set ylabel "Capturing Rate [%%]"
set y2label "CPU usage [%%]"
set yrange [0:105]
set y2range [0:105]
set y2tics
set key below
set grid
set terminal pngcairo size 1000,600
set output %q
plot \
%s
`, e.Title, e.ID+".png", strings.Join(plots, ", \\\n"))
	return journal.WriteFileAtomic(filepath.Join(dir, e.ID+".gp"), []byte(script), 0o644)
}

// startCPUProfile begins a CPU profile that streams into a temp file next to
// path; the returned stop function finishes the profile and renames it into
// place, so path only ever holds a complete profile.
func startCPUProfile(path string) (stop func(), err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".cpuprofile-*")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		name := f.Name()
		err := f.Close()
		if err == nil {
			if err = os.Rename(name, path); err == nil {
				return
			}
		}
		fmt.Fprintf(os.Stderr, "experiment: cpu profile not written to %s: %v\n", path, err)
		os.Remove(name)
	}, nil
}

// writeHeapProfile records the live heap after a final GC (so the profile
// shows what the run retains, not garbage awaiting collection) and writes it
// atomically.
func writeHeapProfile(path string) error {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.WriteHeapProfile(&buf); err != nil {
		return err
	}
	return journal.WriteFileAtomic(path, buf.Bytes(), 0o644)
}
