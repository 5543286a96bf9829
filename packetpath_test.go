package repro

import (
	"runtime"
	"testing"

	"repro/internal/capture"
	"repro/internal/core"
)

// The stacks the thesis measures allocate nothing per packet: the 82544
// fills a fixed descriptor ring and BPF swaps two fixed buffer halves
// (§2.1.1). The simulator of those stacks is held to the same discipline
// on a warm System: once a run has grown the rings, queues and buffers to
// what a train needs, replaying the train again allocates nothing per
// packet. TestPacketPathAllocs gates that per stack, and
// BenchmarkCaptureRun reports the cost per simulated packet on the same
// trains.

// packetPathPackets is the length of every packet-path train.
const packetPathPackets = 5000

// packetPathStack is one capture stack and the recorded trains it is fed:
// one below and one above its drop onset.
type packetPathStack struct {
	name   string
	cfg    capture.Config
	trains []core.Workload
}

func packetPathStacks() []packetPathStack {
	legacy := []core.Workload{
		{Packets: packetPathPackets, TargetRate: 100e6, Seed: 1},
		{Packets: packetPathPackets, TargetRate: 900e6, Seed: 1},
	}
	modern := []core.Workload{
		{Packets: packetPathPackets, TargetRate: 2e9, Seed: 1, Flows: 256, LineRate: 100e9, GenCostNS: 20},
		{Packets: packetPathPackets, TargetRate: 25e9, Seed: 1, Flows: 256, LineRate: 100e9, GenCostNS: 20},
	}
	return []packetPathStack{
		{"swan", core.Swan(), legacy},
		{"moorhen", core.Moorhen(), legacy},
		{"heron", core.Heron(), modern},
		{"osprey", core.Osprey(), modern},
		{"kite", core.Kite(), modern},
	}
}

// warm builds the stack's System, records its trains and runs each once.
// Prepare scales by train length alone, so one System serves every train.
func (p packetPathStack) warm(tb testing.TB) (*capture.System, []capture.Source) {
	tb.Helper()
	sys := capture.NewSystem(core.Prepare(p.cfg, p.trains[0]))
	srcs := make([]capture.Source, len(p.trains))
	for i, w := range p.trains {
		srcs[i] = core.RecordFeed(w).Replay()
		if st := sys.RunSource(srcs[i]); st.Generated != packetPathPackets {
			tb.Fatalf("%s: %d packets generated of %d", p.name, st.Generated, packetPathPackets)
		}
	}
	return sys, srcs
}

func TestPacketPathAllocs(t *testing.T) {
	for _, p := range packetPathStacks() {
		sys, srcs := p.warm(t)
		for i, src := range srcs {
			allocs := testing.AllocsPerRun(2, func() { sys.RunSource(src) })
			perPkt := allocs / packetPathPackets
			if perPkt > 0.1 {
				t.Errorf("%s at %g bit/s: %.3f allocs/pkt (%.0f per run), want at most 0.1",
					p.name, p.trains[i].TargetRate, perPkt, allocs)
			}
		}
	}
}

// BenchmarkCaptureRun replays each stack's packet-path trains on a warm
// System, one op per pass over both, and reports host time and
// allocations per simulated packet.
func BenchmarkCaptureRun(b *testing.B) {
	for _, p := range packetPathStacks() {
		b.Run(p.name, func(b *testing.B) {
			sys, srcs := p.warm(b)
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, src := range srcs {
					sys.RunSource(src)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			pkts := float64(b.N * len(srcs) * packetPathPackets)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pkts, "ns/pkt")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/pkts, "allocs/pkt")
		})
	}
}
