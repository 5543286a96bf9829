package dispatch

import (
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/experiments"
)

// BenchmarkDispatchEngineCall times the experiment boundary of a
// distributed campaign: one engine call meeting an idle worker. Each op
// is one ExecuteCells of the first 4 cells of fig6.2-smp at 1,000
// packets, leased over HTTP by one Worker with default timings that
// joined before the timer started. Before each op, with the timer
// stopped, the worker's lease request after the previous op has reached
// the coordinator and found nothing: the worker is idle. An op covers the
// worker's wait for the cells, one lease and one complete round trip,
// and the measuring of the cells, whose trains the worker has recorded
// after the first op.
func BenchmarkDispatchEngineCall(b *testing.B) {
	o := experiments.Options{Packets: 1000, Reps: 1, Seed: 1}
	fp, err := experiments.Fingerprint(o)
	if err != nil {
		b.Fatal(err)
	}
	const expID = "fig6.2-smp"
	set, err := experiments.EnumerateCells(expID, o)
	if err != nil {
		b.Fatal(err)
	}
	cells, ids := set.Cells[:4], set.IDs[:4]

	c := New("bench", fp)
	srv := httptest.NewServer(newMux(c))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{ID: "bw", BaseURL: srv.URL, Options: o}
	werr := make(chan error, 1)
	go func() { werr <- w.Run(ctx) }()
	waitHeld(b, c, w.ID)
	// The worker sends its next lease request after the answer to its
	// completion, so a call it makes later than the last cell's done
	// callback is that request (or, rarely, a heartbeat).
	var doneAt atomic.Int64
	done := func(int, *capture.Stats, string) error {
		doneAt.Store(int64(c.now()))
		return nil
	}
	idle := func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			c.mu.Lock()
			last := c.workers[w.ID].lastCall
			c.mu.Unlock()
			if last > time.Duration(doneAt.Load()) {
				return
			}
			if time.Now().After(deadline) {
				b.Fatal("the worker made no call after the previous engine call")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idle()
		b.StartTimer()
		for ci, err := range c.ExecuteCells(ctx, expID, cells, ids, done) {
			if err != nil {
				b.Fatalf("cell %d: %v", ci, err)
			}
		}
	}
	b.StopTimer()
	c.Finish()
	if err := <-werr; err != nil {
		b.Fatalf("worker: %v", err)
	}
}
