package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/capture"
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
	if feed.SentBytes == 0 || feed.WireBytes <= feed.SentBytes || feed.LastTime == 0 {
		t.Fatalf("ground-truth counters not recorded: %+v", feed)
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

func TestFeedCacheSharing(t *testing.T) {
	c := NewFeedCache(4)
	w := Workload{Packets: 100, Seed: 2, TargetRate: 5e8}
	f1 := c.Get(w)
	f2 := c.Get(w)
	if f1 != f2 {
		t.Fatal("same workload recorded twice")
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
	if got := c.Get(w1); got == f1 {
		t.Fatal("evicted feed still cached")
	}
	if _, misses := c.Counters(); misses != 4 {
		t.Fatalf("misses = %d, want 4 (w1 re-recorded after eviction)", misses)
	}
}

// TestFeedCacheConcurrent: concurrent Gets for one workload share a single
// recording (run with -race).
func TestFeedCacheConcurrent(t *testing.T) {
	c := NewFeedCache(8)
	w := Workload{Packets: 500, Seed: 7, TargetRate: 8e8}
	feeds := make([]*Feed, 16)
	var wg sync.WaitGroup
	for i := range feeds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			feeds[i] = c.Get(w)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(feeds); i++ {
		if feeds[i] != feeds[0] {
			t.Fatal("concurrent Gets returned different feeds")
		}
	}
	if _, misses := c.Counters(); misses != 1 {
		t.Fatalf("misses = %d, want 1 (single shared recording)", misses)
	}
}
