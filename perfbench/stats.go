package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) == 3 && string(f[0]) == "VmHWM:" && string(f[2]) == "kB" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// runtimeSnap is the Go runtime's allocation and CPU accounting at one
// instant.
type runtimeSnap struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64 // seconds, as runtime/metrics estimates them
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	s := runtimeSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	return s
}

// runtimeDelta sums the runtime's accounting over measured passes.
type runtimeDelta struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
	packets         int64
	passes          int
}

func (d *runtimeDelta) add(before, after runtimeSnap, packets int64) {
	d.mallocs += after.mallocs - before.mallocs
	d.bytes += after.bytes - before.bytes
	d.gcCPU += after.gcCPU - before.gcCPU
	d.totalCPU += after.totalCPU - before.totalCPU
	d.packets += packets
	d.passes++
}

func (d *runtimeDelta) report(r *result) {
	if d.packets == 0 {
		return
	}
	r.set("runtime.allocs_per_pkt", float64(d.mallocs)/float64(d.packets), d.passes)
	r.set("runtime.bytes_per_pkt", float64(d.bytes)/float64(d.packets), d.passes)
	if d.totalCPU > 0 {
		r.set("runtime.gc_cpu_share", d.gcCPU/d.totalCPU, d.passes)
	}
}
