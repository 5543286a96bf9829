package sim

import "math/bits"

// The event queue is a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, "Faster
// algorithms for the shortest path problem", JACM 1990). It rests on
// simulated time never running backwards: no event is ever filed before
// last, the time of the event most recently taken for dispatch.
//
// Layout. Bucket 0 holds the events at time last. Bucket k > 0 holds the
// events whose time first differs from last in bit k-1, so every event in a
// lower bucket is earlier than every event in a higher one. Filing an event
// is one XOR, one bit scan and an append. When bucket 0 runs dry, refill
// empties the lowest non-empty bucket k: last moves to its earliest live
// time, and its other events re-file into buckets below k, because they now
// differ from last in lower bits only. Events above k keep their bucket, as
// the new last agrees with the old one in bit k-1 and above. An event thus
// only ever moves down, at most once per bit of its distance from last.
//
// Ordering. The engine's contract is exact (time, seq) order, seq being the
// order of scheduling. Every bucket is appended to in that order: schedules
// come in seq order, and a refill re-files its bucket in list order into
// buckets that are empty at that moment (the lower ones, or it would not be
// the lowest). Bucket 0 shares one time, so its list is (time, seq) order
// and no comparison is ever needed.
//
// The invariant. last <= now whenever control is outside RunUntil, so a
// schedule in the present never lands behind last. refill therefore moves
// last only to the time of a live event it hands to RunUntil to fire at
// once. A bucket of only cancelled events is recycled where last stands,
// and a bucket whose earliest live event is after RunUntil's limit is left
// as it is. Cancelled events otherwise stay filed until a dispatch or a
// refill reaches them.
type radix struct {
	last   Time
	head   int    // bucket[0][:head] has been dispatched
	occ    uint64 // bit k (k > 0) is set while bucket k holds events
	bucket [64][]*event
}

// insert files ev by its time relative to last. The buckets keep their
// backing arrays when emptied, so filing allocates only while a bucket is
// growing past its high-water length.
func (q *radix) insert(ev *event) {
	k := bits.Len64(uint64(ev.at ^ q.last))
	q.bucket[k] = append(q.bucket[k], ev)
	q.occ |= 1 << k
}

// refill is called once bucket 0 has run dry. It empties the lowest
// non-empty bucket and returns its earliest live event, which the caller
// must fire at once, or nil when no live event is due by limit. That event
// is handed back directly rather than filed in bucket 0, so emptying a
// bucket of one event re-files nothing.
func (s *Sim) refill(limit Time) *event {
	s.bucket[0], s.head = s.bucket[0][:0], 0
	for s.occ>>1 != 0 {
		k := bits.TrailingZeros64(s.occ>>1) + 1
		b := s.bucket[k]
		at, live := minLive(b)
		if live > 0 && at > limit {
			return nil
		}
		s.bucket[k] = b[:0]
		s.occ &^= 1 << k
		if live == 0 {
			for _, ev := range b {
				s.recycle(ev)
			}
			continue
		}
		s.last = at
		var first *event
		for _, ev := range b {
			switch {
			case ev.cancel:
				s.recycle(ev)
			case first == nil && ev.at == at:
				first = ev
			default:
				s.insert(ev)
			}
		}
		return first
	}
	return nil
}

// minLive returns the earliest time among the live events of b and how many
// of them are live.
func minLive(b []*event) (min Time, live int) {
	for _, ev := range b {
		if ev.cancel {
			continue
		}
		if live == 0 || ev.at < min {
			min = ev.at
		}
		live++
	}
	return min, live
}

// earliest returns the time of the earliest live event and the number of
// live events, walking every bucket.
func (q *radix) earliest() (first Time, live int) {
	for k, b := range &q.bucket {
		if k == 0 {
			b = b[q.head:]
		}
		at, n := minLive(b)
		if live == 0 && n > 0 {
			first = at
		}
		live += n
	}
	return first, live
}
