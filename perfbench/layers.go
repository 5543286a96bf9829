package main

import (
	"time"

	"repro/internal/bpf"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/flows"
)

// compileRepeats is how many times the reference filter is compiled for
// filter.compile_us; one compile takes microseconds.
const compileRepeats = 200

// sink keeps the replayed layers' results alive so the compiler cannot
// drop the calls that produce them.
var sink uint64

// replayLayers times the layers that System.RunSource calls internally,
// by calling them directly over the workload's own packet trains:
// recording each train (pktgen and dist, through core.RecordFeed),
// iterating its replay cursor, running the reference BPF filter over
// every packet, and hashing every packet's 5-tuple as RSS does. It also
// times compiling the reference filter.
func replayLayers(p *plan, r *result) {
	var acc uint64
	compiles := make([]float64, compileRepeats)
	var vm bpf.Program
	for i := range compiles {
		t0 := time.Now()
		prog, err := filter.Compile(filter.ReferenceFilterExpr, 1515)
		compiles[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil {
			r.fail("compiling the reference filter: %v", err)
			return
		}
		acc += uint64(len(prog))
		vm = prog
	}
	var gen, replay, bpfRun, hash time.Duration
	var pkts int64
	for _, w := range p.trains {
		t0 := time.Now()
		f := core.RecordFeed(w)
		gen += time.Since(t0)

		t0 = time.Now()
		src := f.Replay()
		for {
			pk, ok := src.Next()
			if !ok {
				break
			}
			acc += uint64(len(pk.Data))
		}
		replay += time.Since(t0)

		t0 = time.Now()
		for _, pk := range f.Packets {
			res, err := vm.Run(pk.Data)
			if err != nil {
				r.fail("running the reference filter: %v", err)
				return
			}
			acc += uint64(res.Accept)
		}
		bpfRun += time.Since(t0)

		t0 = time.Now()
		for _, pk := range f.Packets {
			if k, ok := flows.KeyOf(pk.Data); ok {
				acc ^= k.Hash()
			}
		}
		hash += time.Since(t0)
		pkts += int64(len(f.Packets))
	}
	sink = acc
	n := len(p.trains)
	r.set("filter.compile_us", median(compiles), len(compiles))
	if pkts == 0 {
		return
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(pkts) }
	r.set("pktgen.ns_per_pkt", per(gen), n)
	r.set("core.feed_replay_ns_per_pkt", per(replay), n)
	r.set("bpf.ns_per_pkt", per(bpfRun), n)
	r.set("flows.ns_per_pkt", per(hash), n)
}
