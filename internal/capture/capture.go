// Package capture models the four packet-capturing systems of the thesis
// as discrete-event simulations: a Gigabit NIC with a receive ring and
// interrupts, the FreeBSD BPF stack (filter + copy into per-application
// double buffers in interrupt context, bulk reads) and the Linux
// PF_PACKET/LSF stack (softirq queue, per-socket receive buffers,
// per-packet copies to user space, optional PACKET_MMAP), capturing
// applications with configurable per-packet load (memcpy, zlib, disk
// writes, pipe-to-gzip), and the measurement bookkeeping.
//
// The models are structural: drops fall out of finite rings, buffers and
// CPU saturation, not from baked-in curves. All cost constants live in
// Costs and arch.Profile and are documented as calibration knobs.
package capture

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bpf"
	"repro/internal/sim"
)

// OS selects the capturing stack.
type OS int

const (
	Linux OS = iota
	FreeBSD
)

func (o OS) String() string {
	if o == Linux {
		return "Linux"
	}
	return "FreeBSD"
}

// StackKind selects the generation of the receive path. The zero value is
// the thesis-era interrupt-driven stack chosen by Config.OS; the modern
// kinds replace the single-queue NIC with an RSS multi-queue NIC
// (nic_rss.go) and one of the post-2005 delivery disciplines (modern.go).
type StackKind int

const (
	// StackLegacy: the 2005 interrupt-per-packet stack (Linux PF_PACKET or
	// FreeBSD BPF, per Config.OS).
	StackLegacy StackKind = iota
	// StackRSS: RSS multi-queue NIC + per-ring NAPI (interrupt + polled
	// softirq budget), per-packet copy to user space.
	StackRSS
	// StackPoll: DPDK-style poll-mode driver — busy-spinning cores, no
	// interrupts, batched ring polls, zero-copy hand-off.
	StackPoll
	// StackZeroCopy: AF_XDP-style zero-copy — IRQ-driven XDP redirect into
	// per-socket rings over a shared UMEM frame pool, batched wakeups.
	StackZeroCopy
)

func (k StackKind) String() string {
	switch k {
	case StackLegacy:
		return "legacy"
	case StackRSS:
		return "rss"
	case StackPoll:
		return "pollmode"
	case StackZeroCopy:
		return "zerocopy"
	default:
		return fmt.Sprintf("stack(%d)", int(k))
	}
}

// Costs are the nanosecond cost constants of the kernel paths, before the
// architecture's FixedCost scaling. They parameterize the structural model;
// the defaults are calibrated so the simulated systems land on the
// thesis's qualitative results (see DESIGN.md §5 and EXPERIMENTS.md).
type Costs struct {
	// Shared NIC/driver path.
	IRQEntryNS float64 // per handler invocation (entry/exit, ack)
	DriverRxNS float64 // per packet: descriptor + buffer management
	RingSlots  int     // RX descriptor ring size (82544: 256 default)
	// ModerationDelayNS enables interrupt moderation: the card delays the
	// first interrupt after a packet arrival by this long, batching
	// whatever else arrives meanwhile into one handler run. §2.2.1: this
	// trades interrupt load against timestamp accuracy ("the timestamps of
	// most packets and along with this the inter-packet gaps are not
	// correct").
	ModerationDelayNS float64

	// Linux stack.
	SkbAllocNS      float64 // alloc_skb + setup in the driver
	BacklogEnqNS    float64 // enqueue pointer to the per-CPU input queue
	BacklogLen      int     // netdev_max_backlog (2.6 default 300)
	SoftirqPerPktNS float64 // NET_RX softirq bookkeeping per packet
	SockEnqNS       float64 // clone ref + queue onto a PF_PACKET socket
	WakeupNS        float64 // waking a blocked reader
	RecvSyscallNS   float64 // recvfrom entry/exit per packet
	MmapPerPktNS    float64 // PACKET_MMAP frame hand-off (no syscall/copy)
	SkbOverhead     int     // accounting overhead per packet in rcvbuf
	SoftirqQuota    int     // packets drained per softirq pass
	TimesliceNS     float64 // O(1) scheduler timeslice a reader may hog
	AppBatch        int     // packets consumed per read burst (sim grain)

	// FreeBSD stack.
	MbufNS        float64 // mbuf setup in the interrupt handler
	BpfStoreNS    float64 // catchpacket() fixed cost per accepted packet
	BpfHdrBytes   int     // per-packet BPF header in the store buffer
	ReadSyscallNS float64 // read() on /dev/bpf per wakeup
	ReadTimeoutNS float64 // BPF read timeout while data sits in STORE
	// BulkLocalityFactor discounts the application's memory-bound load
	// after a FreeBSD bulk read: the whole chunk was just streamed through
	// the cache, so per-packet memcpys run warm, whereas Linux touches
	// each packet cold out of the socket queue. <1 favours FreeBSD under
	// memory-bound per-packet load (Figure 6.10b).
	BulkLocalityFactor float64

	// Application side.
	AppPerPktNS  float64 // per-packet bookkeeping in the capturing app
	FlowTrackNS  float64 // per-packet flow-table update (FlowTrack load)
	PipePerPktNS float64 // write() of one packet into the gzip pipe
	PipeBufBytes int     // pipe capacity
	// PolicyPerPktNS is the sampling-policy decision cost per packet read
	// (counter/hash/controller update). Paid only when a Policy is
	// configured; shed packets still pay it — shedding saves the analysis
	// load, not the decision.
	PolicyPerPktNS float64

	// Application analysis workers.
	WorkerQueueBytes int // backpressure bound for Load.Workers

	// PF_RING-style stack (extension).
	RingInsertNS float64 // insert into the shared ring, replacing the socket path

	// Filtering.
	FilterPerInstrNS float64 // one BPF instruction in kernel context

	// Modern receive paths (StackRSS / StackPoll / StackZeroCopy). The
	// legacy stacks never read these, so configs built before they existed
	// behave identically.
	RSSRingSlots int     // per-RSS-ring RX descriptor count
	NICFifoBytes int     // NIC-internal FIFO absorbing DMA-ceiling backpressure
	NapiBudget   int     // packets drained per NAPI / XDP service pass
	NapiPollNS   float64 // per-packet NAPI poll cost (no skb: build + deliver)
	PollBurst    int     // poll-mode burst size per ring poll
	PollPerPktNS float64 // per-packet PMD cost within a burst
	PollIdleNS   float64 // one empty poll-loop pass (busy-spin grain, unscaled)
	XdpRxNS      float64 // per-packet XDP rx + redirect into an XSK ring
	XdpPerPktNS  float64 // app-side per-frame descriptor handling (no copy)
	UmemFrames   int     // UMEM frame pool shared by all XSK sockets
	AppRingSlots int     // per-app ring capacity (poll-mode and XSK, in packets)
	WakeupBatch  int     // packets per application wakeup (batched syscalls)

	// Background OS housekeeping: a kernel-priority task of HousekeepNS
	// runs every HousekeepPeriodNS on each CPU (timer ticks, bookkeeping,
	// daemons). It cannot delay interrupt-context capture but stalls the
	// reading applications — the mechanism that makes small default
	// buffers overflow long before the CPU saturates (Figure 6.2 vs 6.3).
	HousekeepNS       float64
	HousekeepPeriodNS float64
}

// DefaultCosts returns the calibrated cost set.
func DefaultCosts() Costs {
	return Costs{
		IRQEntryNS: 600,
		DriverRxNS: 1100,
		RingSlots:  256,

		SkbAllocNS:      600,
		BacklogEnqNS:    200,
		BacklogLen:      300,
		SoftirqPerPktNS: 1000,
		SockEnqNS:       400,
		WakeupNS:        300,
		RecvSyscallNS:   3000,
		MmapPerPktNS:    250,
		SkbOverhead:     700,
		SoftirqQuota:    64,
		TimesliceNS:     100e6, // 100 ms
		AppBatch:        16,

		MbufNS:             500,
		BpfStoreNS:         150,
		BpfHdrBytes:        18,
		ReadSyscallNS:      1400,
		ReadTimeoutNS:      100e6, // BIOCSRTIMEOUT-equivalent
		BulkLocalityFactor: 0.8,

		AppPerPktNS:  250,
		FlowTrackNS:  450,
		PipePerPktNS: 350,
		PipeBufBytes: 64 << 10,

		PolicyPerPktNS: 60,

		WorkerQueueBytes: 8 << 20,

		RingInsertNS: 200,

		RSSRingSlots: 1024,
		NICFifoBytes: 4 << 20,
		NapiBudget:   64,
		NapiPollNS:   280,
		PollBurst:    32,
		PollPerPktNS: 90,
		PollIdleNS:   4000,
		XdpRxNS:      220,
		XdpPerPktNS:  120,
		UmemFrames:   4096,
		AppRingSlots: 4096,
		WakeupBatch:  32,

		FilterPerInstrNS: 7,

		HousekeepNS:       4e6,   // 4 ms
		HousekeepPeriodNS: 100e6, // every 100 ms
	}
}

// Default buffer sizes for the "default settings" measurements (Fig 6.2).
const (
	// DefaultLinuxRcvbuf approximates the 2.6 kernel's rmem_default.
	DefaultLinuxRcvbuf = 128 << 10
	// DefaultBSDBuffer is one half of the BPF double buffer as a capture
	// tool of the era would configure it.
	DefaultBSDBuffer = 256 << 10
	// BigLinuxRcvbuf and BigBSDBuffer are the increased sizes the thesis
	// settles on (§6.3.1): 128 MB for Linux, 10 MB halves for FreeBSD.
	BigLinuxRcvbuf = 128 << 20
	BigBSDBuffer   = 10 << 20
)

// AppLoad configures the per-packet work of a capturing application,
// mirroring the knobs of createDist (§A.1.3) and the measurement scenarios
// of §6.3.4/6.3.5.
type AppLoad struct {
	MemcpyCount int // -c: additional memcpy()s of the packet
	ZlibLevel   int // -z: gzwrite() compression level (0 = off)
	PipeGzip    int // pipe packets to a separate gzip process at level N
	// FlowTrack accounts each packet in a per-flow table (hash, lookup,
	// counter update): the connection-level bookkeeping of the NIDS-style
	// consumers the thesis motivates (Bro, the time machine).
	FlowTrack    bool
	WriteSnapLen int  // -tsl: write first N bytes of each packet to disk
	WriteFull    bool // -t: write whole packets to disk
	// Workers runs the per-packet analysis load on this many worker
	// threads instead of inline in the reader — the §7.2 future-work idea
	// of "using multiple threads on one machine to take full advantage of
	// multiprocessor systems" [DV04].
	Workers int
}

// Config assembles one system under test.
type Config struct {
	Name  string
	Arch  arch.Profile
	OS    OS
	Costs Costs

	NumCPUs        int  // physical CPUs (1 = "no SMP")
	Hyperthreading bool // Intel only; doubles logical CPUs

	// BufferBytes: Linux = per-socket receive buffer (rmem); FreeBSD = one
	// half of the per-application double buffer.
	BufferBytes int

	// KernelCostFactor scales all kernel-path costs of this system. It
	// captures system-specific friction the thesis observes but does not
	// dissect (most prominently FreeBSD 5.4 on the Xeon — flamingo — which
	// "is often losing more packets than the other systems").
	KernelCostFactor float64

	// MmapPatch enables the memory-mapped libpcap: on Linux the
	// PACKET_MMAP patch of §6.3.6; on FreeBSD the zero-copy read the
	// thesis proposes as future work ("the implementation of a
	// memory-mapped libpcap for FreeBSD", §7.2).
	MmapPatch bool

	// PFRing replaces the Linux capturing stack with a ring-buffer design
	// in the spirit of Luca Deri's patch ([Der04/Der05], §7.2): packets
	// skip the skb/socket machinery and land directly in a shared ring
	// the application reads in place.
	PFRing bool

	// Stack selects the receive-path generation. StackLegacy (zero) keeps
	// the 2005 stacks selected by OS; the modern kinds use the RSS
	// multi-queue NIC with RXRings per-core rings. Modern stacks still use
	// OS for the buffer defaults and scheduler behaviour (they are
	// Linux-family paths).
	Stack StackKind
	// RXRings is the RSS ring count of a modern stack (0 = one per CPU;
	// clamped to the CPU count, and to NumCPUs-1 for poll mode so at least
	// one CPU remains for the applications).
	RXRings int

	Snaplen int // capture length; the thesis uses tcpdump -s 1515

	// DiskQueueBytes is the write-back cache the capture tool can dirty
	// before blocking on the RAID (default 32 MB; time-compressed runs
	// scale it with the run length).
	DiskQueueBytes int

	NumApps int
	Filter  bpf.Program // nil: accept everything
	Load    AppLoad

	// Policy is the per-application sampling / load-shedding policy
	// (policy.go). The zero value disables shedding and keeps every
	// output byte-identical to the unpoliced model.
	Policy PolicySpec

	// CountFlows tracks the distinct 5-tuple flows each application
	// delivers (Stats.AppFlows) — the denominator-side bookkeeping of
	// flow-coverage accuracy. Enabled implicitly by any active Policy;
	// set it explicitly to get flow coverage for an unpoliced baseline.
	CountFlows bool

	// Prepared marks a config whose time constants and buffer sizes have
	// already been scaled for a workload (core.Prepare sets it). Scaling is
	// multiplicative, so it must happen exactly once per config.
	Prepared bool
}

// kpkt is a packet inside a NIC or kernel queue.
type kpkt struct {
	data    []byte
	caplen  int
	arrival sim.Time // when the last bit hit the NIC (true wire time)
	flow    uint64   // the frame's flow hash, carried from pktgen.Packet.Flow
}

// Stats aggregates the outcome of one run.
type Stats struct {
	Generated uint64 // packets offered to the NIC
	// AppCaptured counts the packets each application captured; the
	// Ledger says where every other packet went.
	AppCaptured []uint64
	// AppShed counts the packets each application's sampling policy
	// deliberately declined (nil when no Policy is configured, so runs
	// without a policy serialize byte-identically to older records).
	AppShed []uint64 `json:",omitempty"`
	// AppFlows counts the distinct 5-tuple flows each application
	// delivered (nil unless CountFlows or a Policy is active).
	AppFlows []uint64 `json:",omitempty"`
	// PolicyName is the active sampling policy spec ("uniform:4", …),
	// empty when no policy was configured.
	PolicyName string `json:",omitempty"`
	// CPU accounting over the active window.
	BusyTime  sim.Time
	WallTime  sim.Time
	CPUCount  int
	BusyByCls [sim.NumPrio]sim.Time
	// BusyByCPU is the per-CPU refinement of BusyByCls: busy time per
	// priority class on each logical CPU over the generation window.
	BusyByCPU [][sim.NumPrio]sim.Time
	// Ledger attributes every lost packet to the loss site (drop cause);
	// timestamps in the ledger are relative to the run start.
	Ledger Ledger
	// Gauges are the per-buffer occupancy high-water marks and overflow
	// episode counts, in fixed construction order.
	Gauges []GaugeStat
	// Truncated reports that the run hit the simulation safety cap with
	// packets still in flight; the remnants are booked under
	// CauseAbandoned instead of silently vanishing or draining.
	Truncated bool
	// Timestamp accuracy (§2.2.1): packets are stamped when the interrupt
	// handler processes them, not when they arrived on the wire.
	Stamped  uint64
	TsErrSum sim.Time // Σ (stamp − arrival)
	TsErrMax sim.Time
	TsTies   uint64 // packets sharing the previous packet's stamp
}

// CaptureRate returns captured/generated over all applications (the
// thesis's headline metric) in percent.
func (s Stats) CaptureRate() float64 {
	if s.Generated == 0 {
		return 0
	}
	var sum float64
	for _, c := range s.AppCaptured {
		sum += float64(c)
	}
	return sum / float64(len(s.AppCaptured)) / float64(s.Generated) * 100
}

// AppRates returns worst, average and best per-application capture rates
// in percent (the three lines of Figures 6.7–6.9).
func (s Stats) AppRates() (worst, avg, best float64) {
	if s.Generated == 0 || len(s.AppCaptured) == 0 {
		return 0, 0, 0
	}
	worst, best = 200, -1
	for _, c := range s.AppCaptured {
		r := float64(c) / float64(s.Generated) * 100
		if r < worst {
			worst = r
		}
		if r > best {
			best = r
		}
		avg += r
	}
	avg /= float64(len(s.AppCaptured))
	return worst, avg, best
}

// TsErrMeanUS returns the mean timestamp error in microseconds.
func (s Stats) TsErrMeanUS() float64 {
	if s.Stamped == 0 {
		return 0
	}
	return float64(s.TsErrSum) / float64(s.Stamped) / 1e3
}

// CPUUsage returns average CPU busy fraction in percent over the wall time
// of the run, across all CPUs (the green lines of the thesis plots).
func (s Stats) CPUUsage() float64 {
	if s.WallTime == 0 || s.CPUCount == 0 {
		return 0
	}
	return float64(s.BusyTime) / float64(s.WallTime) / float64(s.CPUCount) * 100
}
