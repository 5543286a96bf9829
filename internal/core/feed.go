package core

import (
	"container/list"
	"sync"

	"repro/internal/capture"
	"repro/internal/pktgen"
	"repro/internal/sim"
)

// Feed is one packet train at one rate: what the optical splitter of
// Figure 3.1 delivers identically to every sniffer. The thesis generates
// each train exactly once and the splitter fans it out, and the rate
// sweeps of Chapter 6 change only the computed inter-packet gap. The
// enhanced pktgen draws a train's frames from its (Packets, Seed,
// FixedSize, Flows) alone, so a Feed shares the frames recorded for its
// train with the feeds of every other rate, and its replay cursor paces
// them: each packet departs pktgen.Config.Gap of its wire length after the
// one before, the generator's own step, so the replayed times equal a
// fresh generator's. Recording once and replaying is not an approximation
// of the testbed — it *is* the testbed.
//
// A Feed is immutable. Packets and its Data slices are shared with every
// feed of the train and with the generator's frame cache, and must not be
// written (the same contract pktgen.Packet states), which makes concurrent
// replay into several systems safe.
type Feed struct {
	Workload Workload
	// Packets holds the train's frames in order (Data, WireLen and Flow)
	// with At zero: departure times come only from Replay.
	Packets []pktgen.Packet
	// Sent is the generated packet count: the ground truth, the role the
	// switch's port counters play in §3.2, that a capture result is
	// validated against.
	Sent uint64

	// steps[wire] is the departure step of a frame of wire bytes at this
	// feed's pacing.
	steps []sim.Time
}

// trainOf is w without its pacing (TargetRate, LineRate, GenCostNS),
// which moves only departure times: what is left (Packets, Seed,
// FixedSize, Flows) shapes the train's frames.
func trainOf(w Workload) Workload {
	w.TargetRate, w.LineRate, w.GenCostNS = 0, 0, 0
	return w
}

// frames is one recorded train, shared by the feeds of every pacing.
type frames struct {
	pkts    []pktgen.Packet
	maxWire int
}

// record runs the generator of a train (a workload without pacing) once
// and keeps its frames.
func record(train Workload) *frames {
	g := train.Generator()
	fr := &frames{}
	if train.Packets > 0 {
		fr.pkts = make([]pktgen.Packet, 0, train.Packets)
	}
	for {
		p, ok := g.Next()
		if !ok {
			break
		}
		p.At = 0
		fr.pkts = append(fr.pkts, p)
		fr.maxWire = max(fr.maxWire, p.WireLen)
	}
	return fr
}

// feed paces the recorded frames as w's generator would: a step for
// every wire length up to the train's longest, from the generator's own
// pacing rule.
func (fr *frames) feed(w Workload) *Feed {
	cfg := w.genConfig()
	steps := make([]sim.Time, fr.maxWire+1)
	for wire := range steps {
		steps[wire] = cfg.Gap(wire)
	}
	return &Feed{Workload: w, Packets: fr.pkts, Sent: uint64(len(fr.pkts)), steps: steps}
}

// RecordFeed runs the workload's generator once and records the train.
func RecordFeed(w Workload) *Feed { return record(trainOf(w)).feed(w) }

// Replay returns a fresh Source emitting the train at the feed's rate.
// Each call returns an independent cursor, so one feed can drive many
// systems — concurrently, since replay only reads the feed.
func (f *Feed) Replay() capture.Source { return &feedSource{f: f} }

type feedSource struct {
	f  *Feed
	i  int
	at sim.Time // departure time of the packet last emitted
}

func (s *feedSource) Reset() { s.i, s.at = 0, 0 }

func (s *feedSource) Next() (pktgen.Packet, bool) {
	if s.i >= len(s.f.Packets) {
		return pktgen.Packet{}, false
	}
	p := s.f.Packets[s.i]
	s.i++
	s.at += s.f.steps[p.WireLen]
	p.At = s.at
	return p, true
}

// DefaultFeedCacheSize bounds how many recorded trains a cache holds at
// once. Every rate of a train shares its recording, so a rate sweep of any
// width needs one train per repetition, and a dispatch worker's single
// cache serves every experiment it leases cells of.
const DefaultFeedCacheSize = 32

// FeedCache is a bounded, mutex-guarded LRU of recorded trains keyed by
// the workload fields that shape the frames (Packets, Seed, FixedSize,
// Flows). Get paces the shared frames at the workload's rate. Concurrent
// Gets for any rates of one train share a single recording (the losers
// block until the winner's generator run completes) instead of generating
// the train once per sniffer or per rate.
type FeedCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List              // front = most recently used; values are *feedEntry
	entries map[Workload]*feedEntry // keyed by trainOf
	hits    uint64
	misses  uint64
}

type feedEntry struct {
	key    Workload
	elem   *list.Element
	once   sync.Once
	frames *frames
}

// NewFeedCache returns a cache holding at most max trains (≤0 selects
// DefaultFeedCacheSize).
func NewFeedCache(max int) *FeedCache {
	if max <= 0 {
		max = DefaultFeedCacheSize
	}
	return &FeedCache{
		max:     max,
		order:   list.New(),
		entries: make(map[Workload]*feedEntry),
	}
}

// Get returns the feed for w, recording its train on first use.
func (c *FeedCache) Get(w Workload) *Feed {
	k := trainOf(w)
	c.mu.Lock()
	e, ok := c.entries[k]
	if ok {
		c.order.MoveToFront(e.elem)
		c.hits++
	} else {
		e = &feedEntry{key: k}
		e.elem = c.order.PushFront(e)
		c.entries[k] = e
		c.misses++
		for c.order.Len() > c.max {
			back := c.order.Back()
			evicted := back.Value.(*feedEntry)
			c.order.Remove(back)
			delete(c.entries, evicted.key)
		}
	}
	c.mu.Unlock()
	// Record outside the cache lock: other trains proceed while this one
	// is generated; callers for the same train block on the entry's once.
	e.once.Do(func() { e.frames = record(k) })
	return e.frames.feed(w)
}

// Counters reports cache hits and misses (a miss records a train).
func (c *FeedCache) Counters() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
