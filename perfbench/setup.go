package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// setupBatch is how many times a run sets its workload up before each
// timed run of its measured phase, each time in a fresh child process.
// Spreading the probes over the whole phase, rather than taking them in
// one burst, samples the host's speed across the phase: on a shared host
// it drifts by more between bursts a few seconds apart than it varies
// within one.
const setupBatch = 8

// setupProber measures setup_s, the host seconds from process start
// until the measured phase could begin. Each probe starts this program
// with --setup-probe and stops the clock when the child reports that its
// measured phase could begin.
type setupProber struct {
	exe  string
	args []string
	xs   []float64 // seconds
}

func newSetupProber(cfg config) (*setupProber, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", cfg.workload, "--seed", strconv.FormatUint(cfg.seed, 10),
		"--root", cfg.root, "--out", cfg.out, "--setup-probe"}
	return &setupProber{exe: exe, args: args}, nil
}

// batch runs setupBatch probes.
func (s *setupProber) batch() error {
	for i := 0; i < setupBatch; i++ {
		d, err := probeOnce(s.exe, s.args)
		if err != nil {
			return fmt.Errorf("setup probe %d: %w", len(s.xs)+1, err)
		}
		s.xs = append(s.xs, d.Seconds())
	}
	return nil
}

// report records setup_s: the median of every probe of the run.
func (s *setupProber) report(r *result) {
	r.set("setup_s", median(s.xs), len(s.xs))
}

func probeOnce(exe string, args []string) (time.Duration, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0)
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("the child said %q (%v)", line, rerr)
	}
	return d, nil
}

// setupOnce is the child side of a setup probe. It does what a run does
// before its measured phase — package initialisation, which builds the
// MWN size distribution, then the workload's configuration and cell
// layout and, for the distributed workload, the live campaign — prints
// "ready", and tears down.
func setupOnce(wl workload, cfg config, stdout io.Writer) error {
	p, err := wl.plan(cfg.seed)
	if err != nil {
		return err
	}
	if !wl.distributed {
		_, err := fmt.Fprintln(stdout, "ready")
		return err
	}
	dir := filepath.Join(cfg.out, fmt.Sprintf("setup-%d", os.Getpid()))
	c, err := startCampaign(p, dir, nil)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, "ready")
	c.finish()
	if cerr := c.close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return err
}
