package core

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/capture"
	"repro/internal/sim"
)

// TestFeedReplayMatchesFresh is the splitter invariant: replaying a
// recorded feed must produce byte-identical Stats to running a fresh
// generator, for every one of the four systems.
func TestFeedReplayMatchesFresh(t *testing.T) {
	w := Workload{Packets: 4000, Seed: 3, TargetRate: 700e6}
	feed := RecordFeed(w)
	if feed.Sent != uint64(w.Packets) {
		t.Fatalf("feed recorded %d packets, want %d", feed.Sent, w.Packets)
	}
	g := w.Generator()
	for _, ok := g.Next(); ok; _, ok = g.Next() {
	}
	var last sim.Time
	src := feed.Replay()
	for p, ok := src.Next(); ok; p, ok = src.Next() {
		last = p.At
	}
	if last != g.LastTime {
		t.Fatalf("last replayed departure at %d, fresh generator's at %d", last, g.LastTime)
	}
	for _, cfg := range Sniffers() {
		fresh := RunOnce(cfg, w)
		sys := capture.NewSystem(Prepare(cfg, w))
		replayed := sys.RunSource(feed.Replay())
		if !reflect.DeepEqual(fresh, replayed) {
			t.Errorf("%s: replayed stats differ from fresh run\nfresh:    %+v\nreplayed: %+v",
				cfg.Name, fresh, replayed)
		}
	}
}

// TestFeedReplayIndependentCursors: one feed drives many systems; each
// Replay starts from the beginning.
func TestFeedReplayIndependentCursors(t *testing.T) {
	feed := RecordFeed(Workload{Packets: 50, Seed: 1})
	a, b := feed.Replay(), feed.Replay()
	pa, _ := a.Next()
	for i := 0; i < 10; i++ {
		b.Next()
	}
	a.Reset()
	pa2, _ := a.Next()
	if pa.At != pa2.At || pa.Flow != pa2.Flow {
		t.Fatal("Reset did not rewind the cursor")
	}
}

// sameFrames reports whether two feeds replay one recorded frames array.
func sameFrames(a, b *Feed) bool {
	return len(a.Packets) > 0 && len(b.Packets) > 0 && &a.Packets[0] == &b.Packets[0]
}

// TestFeedCacheSharing: two rates of one train are one recording.
func TestFeedCacheSharing(t *testing.T) {
	c := NewFeedCache(4)
	w := Workload{Packets: 100, Seed: 2, TargetRate: 5e8}
	f1 := c.Get(w)
	w.TargetRate = 9e8
	f2 := c.Get(w)
	if !sameFrames(f1, f2) {
		t.Fatal("two rates of one train recorded twice")
	}
	if f2.Workload != w {
		t.Fatalf("feed paced for %+v, want %+v", f2.Workload, w)
	}
	if hits, misses := c.Counters(); hits != 1 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", hits, misses)
	}
}

func TestFeedCacheEviction(t *testing.T) {
	c := NewFeedCache(2)
	w1 := Workload{Packets: 50, Seed: 1}
	w2 := Workload{Packets: 50, Seed: 2}
	w3 := Workload{Packets: 50, Seed: 3}
	f1 := c.Get(w1)
	c.Get(w2)
	c.Get(w3) // evicts w1 (least recently used)
	if got := c.Get(w1); sameFrames(got, f1) {
		t.Fatal("evicted train still cached")
	}
	if _, misses := c.Counters(); misses != 4 {
		t.Fatalf("misses = %d, want 4 (w1 re-recorded after eviction)", misses)
	}
}

// TestFeedCacheConcurrent: concurrent Gets at different rates of one
// train share a single recording (run with -race).
func TestFeedCacheConcurrent(t *testing.T) {
	c := NewFeedCache(8)
	feeds := make([]*Feed, 16)
	var wg sync.WaitGroup
	for i := range feeds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			feeds[i] = c.Get(Workload{Packets: 500, Seed: 7, TargetRate: float64(i+1) * 1e8})
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(feeds); i++ {
		if !sameFrames(feeds[i], feeds[0]) {
			t.Fatal("concurrent Gets recorded the train more than once")
		}
	}
	if _, misses := c.Counters(); misses != 1 {
		t.Fatalf("misses = %d, want 1 (single shared recording)", misses)
	}
}

// fuzzWorkload maps fuzz inputs onto a workload: 1–3000 packets, 0–300
// flows, the MWN distribution or a fixed size of 64–1518 bytes, and each
// pacing field either unset or spread wide enough that both
// serialization-bound and cost-bound gaps occur.
func fuzzWorkload(seed uint64, packets, flows, size uint16, rate, line, cost uint32) Workload {
	w := Workload{
		Packets:    1 + int(packets)%3000,
		Seed:       seed,
		Flows:      int(flows) % 301,
		TargetRate: float64(rate) * 25,          // up to ~107 Gbit/s
		LineRate:   float64(line) * 100,         // up to ~429 Gbit/s
		GenCostNS:  float64(cost%500_000) / 100, // up to 5 µs
	}
	if size&1 == 1 {
		w.FixedSize = 64 + int(size>>1)%(1518-64+1)
	}
	return w
}

// checkMatchesGenerator fails unless f replays exactly what a fresh
// generator for f's workload emits: departure times, wire lengths, flow
// hashes and frame bytes.
func checkMatchesGenerator(t *testing.T, f *Feed) {
	t.Helper()
	g, src := f.Workload.Generator(), f.Replay()
	for i := 0; ; i++ {
		want, wok := g.Next()
		got, gok := src.Next()
		if wok != gok {
			t.Fatalf("%+v: packet %d: replay ok=%v, generator ok=%v", f.Workload, i, gok, wok)
		}
		if !wok {
			break
		}
		if got.At != want.At || got.WireLen != want.WireLen || got.Flow != want.Flow || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("%+v: packet %d: replayed (at %d, wire %d, flow %x, %d bytes), generated (at %d, wire %d, flow %x, %d bytes)",
				f.Workload, i, got.At, got.WireLen, got.Flow, len(got.Data), want.At, want.WireLen, want.Flow, len(want.Data))
		}
	}
	if f.Sent != g.Sent {
		t.Fatalf("%+v: feed sent %d, generator %d", f.Workload, f.Sent, g.Sent)
	}
}

// FuzzFeedMatchesGenerator: a cached feed replays a fresh generator's
// train exactly; workloads that differ only in pacing share one frames
// array, and workloads that differ in a field shaping the frames (Seed,
// Packets, Flows, FixedSize) never do.
func FuzzFeedMatchesGenerator(f *testing.F) {
	// seed, packets, flows, size (odd = fixed), rate, line, cost
	f.Add(uint64(1), uint16(2000), uint16(0), uint16(0), uint32(36_000_000), uint32(0), uint32(0))                     // thesis sweep, 900 Mbit/s
	f.Add(uint64(2), uint16(1500), uint16(256), uint16(0), uint32(1_000_000_000), uint32(1_000_000_000), uint32(2000)) // modern, 25G on 100G
	f.Add(uint64(3), uint16(800), uint16(16), uint16(2*1436+1), uint32(0), uint32(0), uint32(100))                     // 1500-byte frames, serialization-bound
	f.Add(uint64(4), uint16(999), uint16(300), uint16(1), uint32(0), uint32(400_000_000), uint32(0))                   // 64-byte frames, cost-bound at 40G
	f.Add(uint64(5), uint16(2999), uint16(1), uint16(2*1454+1), uint32(7), uint32(3), uint32(499_999))                 // 1518 bytes, slow rates
	f.Add(uint64(6), uint16(0), uint16(2), uint16(0), uint32(1), uint32(1), uint32(1))                                 // one packet
	f.Fuzz(func(t *testing.T, seed uint64, packets, flows, size uint16, rate, line, cost uint32) {
		w := fuzzWorkload(seed, packets, flows, size, rate, line, cost)
		c := NewFeedCache(0)
		base := c.Get(w)
		checkMatchesGenerator(t, base)

		paced := w
		paced.TargetRate, paced.LineRate, paced.GenCostNS = w.TargetRate*3+1e6, w.LineRate+10e9, w.GenCostNS/2
		pf := c.Get(paced)
		if !sameFrames(base, pf) {
			t.Fatalf("%+v and %+v differ only in pacing but do not share frames", w, paced)
		}
		checkMatchesGenerator(t, pf)

		variants := []Workload{w, w, w, w}
		variants[0].Seed++
		variants[1].Packets = w.Packets%3000 + 1
		variants[2].Flows = (w.Flows + 1) % 301
		if w.FixedSize == 0 {
			variants[3].FixedSize = 64 + int(seed%1455)
		} else {
			variants[3].FixedSize = 0
		}
		for _, v := range variants {
			vf := c.Get(v)
			if sameFrames(base, vf) {
				t.Fatalf("%+v and %+v share frames", w, v)
			}
			checkMatchesGenerator(t, vf)
		}
		if hits, misses := c.Counters(); hits != 1 || misses != 5 {
			t.Fatalf("hits/misses = %d/%d, want 1/5", hits, misses)
		}
	})
}
