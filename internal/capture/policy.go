package capture

import (
	"fmt"
	"strconv"
	"strings"
)

// PolicyKind selects a sampling / load-shedding policy for the capturing
// applications — the deliberate counterpart of the arbitrary drops the
// thesis measures. Under overload a policy sheds packets *after* the OS
// hand-off (the read still pays the kernel and syscall cost) but before
// the per-packet analysis load, trading completeness for bounded,
// predictable accuracy (Braun et al., "Adaptive Load-Aware Sampling for
// Network Monitoring on Multicore Commodity Hardware").
type PolicyKind int

const (
	// PolicyNone: process every packet (the thesis's behaviour).
	PolicyNone PolicyKind = iota
	// PolicyUniform: keep exactly one packet in every N, counted per
	// application — the classic systematic count-based sampler.
	PolicyUniform
	// PolicyFlow: keep whole flows: a flow is kept when the hash of its
	// canonical 5-tuple, which each packet carries (pktgen.Packet.Flow),
	// falls into the kept 1/N slice of the hash space, so every packet of
	// a kept flow is processed and every packet of a shed flow is declined —
	// connection-level consumers (§1.1: "if only few packets per
	// connection are required, it is exceptionally bad if exactly these
	// packets are lost") keep complete flows instead of packet fragments.
	PolicyFlow
	// PolicyAdaptive: closed-loop feedback control. Each read batch
	// observes the occupancy of the app's kernel buffer (Linux rcvbuf /
	// FreeBSD BPF store half) and of the analysis worker queue, and a
	// proportional controller steers the keep rate toward the Target
	// occupancy: an idle system converges to keeping everything, an
	// overloaded one backs off until the queues stop growing.
	PolicyAdaptive
)

// String returns the policy name used in flags, tables and ledger causes.
func (k PolicyKind) String() string {
	switch k {
	case PolicyNone:
		return "none"
	case PolicyUniform:
		return "uniform"
	case PolicyFlow:
		return "flow"
	case PolicyAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("policy(%d)", int(k))
	}
}

// Adaptive-controller defaults (see PolicySpec).
const (
	defaultAdaptiveTarget = 0.5
	defaultAdaptiveGain   = 0.25
	defaultAdaptiveFloor  = 0.02
)

// PolicySpec configures one sampling policy. The zero value means "no
// policy" and leaves every existing output byte-identical.
type PolicySpec struct {
	Kind PolicyKind
	// N is the sampling modulus of the uniform and flow policies: keep
	// 1 in N (N >= 1; 1 keeps everything).
	N int
	// Target is the adaptive controller's occupancy setpoint in [0,1)
	// (default 0.5): the controller sheds harder while the observed queue
	// occupancy exceeds it and recovers toward full capture below it.
	Target float64
	// Gain is the proportional gain of the adaptive controller per read
	// batch (default 0.25).
	Gain float64
	// Floor is the adaptive controller's minimum keep rate (default 0.02):
	// even a saturated application keeps a trickle, so accuracy degrades
	// gracefully instead of hitting zero.
	Floor float64
}

// Enabled reports whether the spec selects an active policy.
func (p PolicySpec) Enabled() bool { return p.Kind != PolicyNone }

// Cause returns the ledger cause shed packets of this policy are booked
// under.
func (p PolicySpec) Cause() Cause {
	switch p.Kind {
	case PolicyUniform:
		return CauseShedUniform
	case PolicyFlow:
		return CauseShedFlow
	case PolicyAdaptive:
		return CauseShedAdaptive
	default:
		panic("capture: Cause() on disabled policy")
	}
}

// String renders the spec in the form ParsePolicy accepts.
func (p PolicySpec) String() string {
	switch p.Kind {
	case PolicyNone:
		return "none"
	case PolicyUniform, PolicyFlow:
		return fmt.Sprintf("%s:%d", p.Kind, p.N)
	case PolicyAdaptive:
		if p.Target > 0 && p.Target != defaultAdaptiveTarget {
			return fmt.Sprintf("adaptive:%g", p.Target)
		}
		return "adaptive"
	default:
		return p.Kind.String()
	}
}

// ParsePolicy parses a policy spec string:
//
//	""            no policy (byte-identical to the unpoliced system)
//	"none"        no policy
//	"uniform:N"   keep 1 in N packets (N >= 1)
//	"flow:N"      keep the flows hashing into 1/N of the hash space
//	"adaptive"    queue-depth feedback control with the default setpoint
//	"adaptive:T"  feedback control with occupancy setpoint T in (0,1)
func ParsePolicy(s string) (PolicySpec, error) {
	s = strings.TrimSpace(s)
	name, arg := s, ""
	if i := strings.IndexByte(s, ':'); i >= 0 {
		name, arg = s[:i], s[i+1:]
	}
	switch name {
	case "", "none":
		if arg != "" {
			return PolicySpec{}, fmt.Errorf("capture: policy %q takes no argument", name)
		}
		return PolicySpec{}, nil
	case "uniform", "flow":
		kind := PolicyUniform
		if name == "flow" {
			kind = PolicyFlow
		}
		if arg == "" {
			return PolicySpec{}, fmt.Errorf("capture: policy %q needs a modulus, e.g. %q", name, name+":4")
		}
		n, err := strconv.Atoi(arg)
		if err != nil || n < 1 {
			return PolicySpec{}, fmt.Errorf("capture: bad %s modulus %q (want integer >= 1)", name, arg)
		}
		return PolicySpec{Kind: kind, N: n}, nil
	case "adaptive":
		spec := PolicySpec{Kind: PolicyAdaptive}
		if arg != "" {
			t, err := strconv.ParseFloat(arg, 64)
			// The positive-range form, not its negation: NaN parses fine and
			// compares false against every bound, so "adaptive:nan" must fail
			// the t>0 && t<1 check rather than sneak past t<=0 || t>=1.
			if err != nil || !(t > 0 && t < 1) {
				return PolicySpec{}, fmt.Errorf("capture: bad adaptive setpoint %q (want 0 < T < 1)", arg)
			}
			spec.Target = t
		}
		return spec, nil
	}
	return PolicySpec{}, fmt.Errorf("capture: unknown policy %q (want none, uniform:N, flow:N, adaptive[:T])", s)
}

// newSampler builds the per-application sampler state for the spec, nil
// when no policy is enabled.
func (p PolicySpec) newSampler() policySampler {
	switch p.Kind {
	case PolicyNone:
		return nil
	case PolicyUniform:
		n := p.N
		if n < 1 {
			n = 1
		}
		return &uniformSampler{n: uint64(n)}
	case PolicyFlow:
		n := p.N
		if n < 1 {
			n = 1
		}
		return &flowSampler{n: uint64(n)}
	case PolicyAdaptive:
		s := &adaptiveSampler{
			target: p.Target,
			gain:   p.Gain,
			floor:  p.Floor,
		}
		if s.target <= 0 || s.target >= 1 {
			s.target = defaultAdaptiveTarget
		}
		if s.gain <= 0 {
			s.gain = defaultAdaptiveGain
		}
		if s.floor <= 0 || s.floor > 1 {
			s.floor = defaultAdaptiveFloor
		}
		s.reset()
		return s
	default:
		panic(fmt.Sprintf("capture: unknown policy kind %d", int(p.Kind)))
	}
}

// policySampler is the per-application decision state of one policy. All
// state is private to one App inside one simulator, so no locking; every
// decision is a pure function of the spec and the packets seen so far,
// which keeps runs deterministic and replayable.
type policySampler interface {
	// observe feeds the controller the queue occupancy in [0,1] at the
	// start of a read batch (before any admit decision of the batch).
	observe(occ float64)
	// admit decides whether the application processes a packet of the
	// flow with this hash.
	admit(flow uint64) bool
	// reset clears the state for System reuse.
	reset()
}

// uniformSampler keeps the first of every n consecutive packets.
type uniformSampler struct {
	n    uint64
	seen uint64
}

func (u *uniformSampler) observe(float64) {}

func (u *uniformSampler) admit(uint64) bool {
	keep := u.seen%u.n == 0
	u.seen++
	return keep
}

func (u *uniformSampler) reset() { u.seen = 0 }

// flowSampler keeps whole flows: a flow is kept iff its canonical 5-tuple
// hash falls into the kept 1/n slice of the hash space.
type flowSampler struct {
	n uint64
}

func (f *flowSampler) observe(float64) {}

func (f *flowSampler) admit(flow uint64) bool { return flow%f.n == 0 }

func (f *flowSampler) reset() {}

// adaptiveSampler is a proportional controller over queue occupancy with a
// credit accumulator turning the continuous keep rate into per-packet
// decisions (deterministic error-diffusion, no randomness): credit
// accumulates keepRate per packet and a packet is admitted whenever a
// whole credit is available.
type adaptiveSampler struct {
	target float64
	gain   float64
	floor  float64

	keep   float64
	credit float64
}

func (a *adaptiveSampler) observe(occ float64) {
	if occ < 0 {
		occ = 0
	} else if occ > 1 {
		occ = 1
	}
	a.keep -= a.gain * (occ - a.target)
	if a.keep > 1 {
		a.keep = 1
	} else if a.keep < a.floor {
		a.keep = a.floor
	}
}

func (a *adaptiveSampler) admit(uint64) bool {
	a.credit += a.keep
	if a.credit >= 1 {
		a.credit--
		return true
	}
	return false
}

func (a *adaptiveSampler) reset() {
	a.keep = 1
	a.credit = 0
}

// FairnessIndex returns Jain's fairness index (Σx)² / (n·Σx²) over the
// per-application capture counts: 1.0 when every application captured the
// same amount, approaching 1/n when one application starved the rest —
// the quantity behind the thesis's finding that Linux collapses unfairly
// with ≥4 applications. The all-zero column (every application starved)
// is defined as 1.0: zero is shared perfectly equally, and the 0/0 form
// must not surface as NaN in tables or JSON.
func FairnessIndex(captured []uint64) float64 {
	if len(captured) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, c := range captured {
		x := float64(c)
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(captured)) * sumSq)
}

// Fairness returns Jain's fairness index over the run's per-application
// capture counts.
func (s Stats) Fairness() float64 { return FairnessIndex(s.AppCaptured) }
