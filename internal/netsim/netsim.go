// Package netsim models the communication fabric between ECUs: per-link
// best-case response time, response-time jitter, bandwidth and message loss.
// Delivery on a link is FIFO (in-order), matching the middleware assumption
// in the paper's system model; losses are the paper's "lossy transmission
// channel" that remote-segment monitoring is built around.
package netsim

import (
	"fmt"

	"chainmon/internal/sim"
)

// Link is a unidirectional communication path between two resources.
type Link struct {
	Name string

	k   *sim.Kernel
	rng *sim.RNG

	// BCRT is the best-case response time of the link (propagation plus
	// minimal stack traversal).
	BCRT sim.Duration
	// Jitter is the additional response time above BCRT (J^R in the paper).
	Jitter sim.Dist
	// BytesPerSecond is the serialization bandwidth; 0 means infinite.
	BytesPerSecond int64
	// LossProb is the probability that a message is dropped entirely.
	LossProb float64
	// RetransmitDelay models reliable DDS QoS: when set, a lost message is
	// not dropped but delivered after an additional NACK/retransmission
	// delay on top of its nominal response time. The paper notes the
	// synchronization-based monitor is transparent to such retransmissions
	// — a retransmitted sample that still misses its deadline is discarded
	// like any late sample.
	RetransmitDelay sim.Dist

	// DropFault, when set, is consulted for every send after the nominal
	// LossProb draw; returning true loses the message like a regular loss.
	// Installed by internal/faultinject for correlated (bursty) loss models
	// that the i.i.d. LossProb cannot express.
	DropFault func(at sim.Time, size int) bool
	// DelayFault, when set, returns additional response time added to every
	// send (fault injection: transient latency spikes, e.g. a congested
	// switch or a link renegotiation).
	DelayFault func(at sim.Time) sim.Duration
	// HoldFault, when set, returns a positive duration to hold the message
	// back past the FIFO order: the held message is delivered late and
	// subsequent sends overtake it (fault injection: reordering, e.g. a
	// retransmission path or a misbehaving switch queue). The held message
	// does not advance the link's FIFO floor.
	HoldFault func(at sim.Time, size int) sim.Duration
	// DupFault, when set, may deliver a second copy of the message after an
	// additional delay (fault injection: duplication, e.g. a retransmission
	// whose original was not lost after all).
	DupFault func(at sim.Time, size int) (dup bool, extra sim.Duration)

	lastDelivery sim.Time
	sent         uint64
	lost         uint64
	retransmits  uint64
	faultDrops   uint64
	held         uint64
	duplicated   uint64

	tel *linkTel // nil when uninstrumented
}

// Config parameterizes a link.
type Config struct {
	BCRT           sim.Duration
	Jitter         sim.Dist
	BytesPerSecond int64
	LossProb       float64
	// RetransmitDelay enables reliable QoS: lost messages are delivered
	// after this extra delay instead of dropped. Nil = best effort.
	RetransmitDelay sim.Dist
}

// NewLink creates a link on the kernel.
func NewLink(k *sim.Kernel, rng *sim.RNG, name string, cfg Config) *Link {
	if cfg.Jitter == nil {
		cfg.Jitter = sim.Constant(0)
	}
	return &Link{
		Name:            name,
		k:               k,
		rng:             rng.Derive("link/" + name),
		BCRT:            cfg.BCRT,
		Jitter:          cfg.Jitter,
		BytesPerSecond:  cfg.BytesPerSecond,
		LossProb:        cfg.LossProb,
		RetransmitDelay: cfg.RetransmitDelay,
	}
}

// Stats returns how many messages were sent and how many of those were lost.
func (l *Link) Stats() (sent, lost uint64) { return l.sent, l.lost }

// Retransmits returns how many messages were recovered by the reliable QoS.
func (l *Link) Retransmits() uint64 { return l.retransmits }

// FaultDrops returns how many losses were caused by an installed DropFault
// hook (a subset of the lost count reported by Stats).
func (l *Link) FaultDrops() uint64 { return l.faultDrops }

// Held returns how many messages a HoldFault reordered past the FIFO order.
func (l *Link) Held() uint64 { return l.held }

// Duplicated returns how many extra copies a DupFault delivered.
func (l *Link) Duplicated() uint64 { return l.duplicated }

// ResponseBounds returns the best-case response time and a practical
// worst-case (BCRT + jitter upper bound) for a message of the given size.
// These are the BCRT and BCRT+J^R terms the synchronization-based monitor's
// d_mon is assembled from.
func (l *Link) ResponseBounds(size int) (bcrt, wcrt sim.Duration) {
	tx := l.transmissionTime(size)
	_, jhi := l.Jitter.Bounds()
	return l.BCRT + tx, l.BCRT + tx + jhi
}

func (l *Link) transmissionTime(size int) sim.Duration {
	if l.BytesPerSecond <= 0 || size <= 0 {
		return 0
	}
	return sim.Duration(int64(size) * int64(sim.Second) / l.BytesPerSecond)
}

// Send transmits a message of the given size. If the message is not lost,
// deliver runs at the receiver after BCRT + transmission + jitter, no
// earlier than any previously sent message (FIFO). It returns the scheduled
// delivery time and false if the message was dropped.
func (l *Link) Send(size int, deliver func()) (sim.Time, bool) {
	at, copies := l.SendTagged(size, 0, 0, deliver)
	return at, copies > 0
}

// SendTagged is Send with the sender's causal tags: the activation index
// and the flow identity (telemetry.FlowID) of the sample on the wire. The
// link's trace events — the successful transmission as well as drop, hold
// and duplication faults — carry the tags, so the Perfetto flow view can
// stitch the network hop between dds-send and dds-recv (or show where a
// flow died on the wire). Untraced callers use Send, which passes zero tags.
//
// copies is how many times deliver was scheduled: 0 for a lost message, 1
// normally, 2 when a DupFault duplicated it. A caller that recycles the
// state deliver works on releases it after that many calls (or at once for
// a loss). The delivery events' handles are dropped, so none escapes.
func (l *Link) SendTagged(size int, act uint64, flow uint32, deliver func()) (at sim.Time, copies int) {
	l.sent++
	resp := l.BCRT + l.transmissionTime(size) + l.Jitter.Sample(l.rng)
	if l.DelayFault != nil {
		resp += l.DelayFault(l.k.Now())
	}
	lost := l.rng.Bool(l.LossProb)
	if !lost && l.DropFault != nil && l.DropFault(l.k.Now(), size) {
		lost = true
		l.faultDrops++
	}
	if l.tel != nil {
		l.tel.sends.Inc()
	}
	if lost {
		if l.RetransmitDelay == nil {
			l.lost++
			if l.tel != nil {
				l.tel.drop(l.k.Now(), act, flow, size)
			}
			return 0, 0
		}
		// Reliable QoS: the receiver NACKs and the writer retransmits;
		// the sample arrives late instead of never.
		l.retransmits++
		resp += l.RetransmitDelay.Sample(l.rng)
	}
	var hold sim.Duration
	if !lost && l.HoldFault != nil {
		hold = l.HoldFault(l.k.Now(), size)
	}
	at = l.k.Now().Add(resp)
	if hold > 0 {
		// Reordering: the held message is delivered late and does not
		// advance the FIFO floor, so subsequent sends overtake it.
		l.held++
		at = at.Add(hold)
		if l.tel != nil {
			l.tel.hold(l.k.Now(), act, flow, hold)
		}
	} else {
		if at < l.lastDelivery {
			at = l.lastDelivery // FIFO: no overtaking on a link
		}
		l.lastDelivery = at
	}
	if l.tel != nil {
		// The accepted transmission: one net-send hop between the sender's
		// dds-send and the receiver's dds-recv, tagged with the flow.
		l.tel.send(l.k.Now(), act, flow, at.Sub(l.k.Now()))
	}
	copies = 1
	if deliver != nil {
		l.k.At(at, deliver)
	}
	if !lost && l.DupFault != nil {
		if dup, extra := l.DupFault(l.k.Now(), size); dup {
			l.duplicated++
			copies = 2
			if l.tel != nil {
				l.tel.dup(l.k.Now(), act, flow, extra)
			}
			if deliver != nil {
				l.k.At(at.Add(extra), deliver)
			}
		}
	}
	return at, copies
}

func (l *Link) String() string {
	return fmt.Sprintf("link(%s, bcrt=%v, jitter=%v, loss=%.3f)", l.Name, l.BCRT, l.Jitter, l.LossProb)
}

// Loopback returns a link configuration suitable for intra-ECU DDS
// communication: small latency, small jitter, no loss.
func Loopback() Config {
	return Config{
		BCRT: 20 * sim.Microsecond,
		Jitter: sim.LogNormalDist{
			Median: 15 * sim.Microsecond,
			Sigma:  0.6,
			Max:    2 * sim.Millisecond,
		},
	}
}

// Ethernet returns a link configuration for inter-ECU communication
// resembling the automotive Ethernet setup of the use case.
func Ethernet() Config {
	return Config{
		BCRT: 300 * sim.Microsecond,
		Jitter: sim.LogNormalDist{
			Median: 200 * sim.Microsecond,
			Sigma:  0.8,
			Max:    20 * sim.Millisecond,
		},
		BytesPerSecond: 125_000_000, // 1 Gbit/s
		LossProb:       0.001,
	}
}
